//! The pooled schedule of [`MultiQueryEngine`]: the long-lived worker
//! threads, the micro-batch planner, and the deterministic merge. What
//! the schedule computes, why its event stream is byte-identical to the
//! inline one, and the panic contract are documented once, in
//! [`crate::multi`]; this module is the machinery behind
//! `MultiQueryEngine::{process_batch, expire_now}` when
//! `n_workers() ≥ 1`.

use crate::multi::{Group, MultiQueryEngine, MultiSink, QueryId};
use crate::sink::ResultSink;
use srpq_common::{FxHashMap, Op, ResultPair, StreamTuple, Timestamp};
use srpq_graph::{Visibility, WindowGraph};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// One untagged result event staged in a worker outbox, keyed for the
/// deterministic merge. Fan-out to subscriber tags happens on the
/// coordinator, after the merge.
struct Ev {
    /// Arrival position within the micro-batch (`u32::MAX` groups the
    /// events of an explicit expiry pass, which has no driving tuple).
    pos: u32,
    group: u32,
    invalidated: bool,
    pair: ResultPair,
    ts: Timestamp,
}

/// Buffers one group engine's events under a fixed `(pos, group)` key.
struct EvSink<'a> {
    events: &'a mut Vec<Ev>,
    pos: u32,
    group: u32,
}

impl ResultSink for EvSink<'_> {
    fn emit(&mut self, pair: ResultPair, ts: Timestamp) {
        self.events.push(Ev {
            pos: self.pos,
            group: self.group,
            invalidated: false,
            pair,
            ts,
        });
    }

    fn invalidate(&mut self, pair: ResultPair, ts: Timestamp) {
        self.events.push(Ev {
            pos: self.pos,
            group: self.group,
            invalidated: true,
            pair,
            ts,
        });
    }
}

/// Work shipped to a worker thread for one micro-batch.
enum Job {
    /// Extend/expire the shipped groups over the micro-batch.
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

/// A worker's reply: the groups (with their Δ forests mutated) and the
/// events they produced, in `(pos, own-groups-ascending)` order, plus
/// the job's evaluation/expiry wall-clock so the coordinator can keep
/// honest per-worker totals (mirroring every `eval_ns` increment the
/// job applied to per-group stats).
struct JobOut {
    groups: Vec<(u32, Group)>,
    events: Vec<Ev>,
    eval_ns: u64,
    expiry_ns: u64,
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
    use srpq_common::beacon::stage;
    while let Ok(job) = jobs.recv() {
        let out = match job {
            Job::Batch {
                graph,
                tuples,
                mut groups,
            } => {
                beacon.set(stage::EXTEND);
                let mut events = Vec::new();
                let mut eval_ns = 0u64;
                let mut expiry_ns = 0u64;
                for (pos, t) in tuples.iter().enumerate() {
                    for (gi, grp) in groups.iter_mut() {
                        // Label routing, per group: alphabet membership
                        // is exactly the routing-table criterion.
                        if !grp.engine.query().dfa().knows_label(t.label) {
                            continue;
                        }
                        let expiry0 = grp.engine.stats().expiry_nanos;
                        let t0 = std::time::Instant::now();
                        let mut sink = EvSink {
                            events: &mut events,
                            pos: pos as u32,
                            group: *gi,
                        };
                        // `extend` = advance at `upto(pos).before()` —
                        // slide-expiry against the pre-mutation graph,
                        // as the inline schedule runs it — then
                        // dispatch at `upto(pos)`, which admits the
                        // tuple's own edge.
                        grp.engine
                            .extend(&graph, Visibility::upto(pos), *t, &mut sink);
                        let elapsed = t0.elapsed().as_nanos() as u64;
                        let stats = grp.engine.stats_mut();
                        stats.tuples_routed += 1;
                        stats.eval_ns += elapsed;
                        eval_ns += elapsed;
                        expiry_ns += stats.expiry_nanos - expiry0;
                    }
                }
                // Release the graph before replying: the coordinator
                // takes it back out of the `Arc` once every worker has
                // answered.
                drop(graph);
                drop(tuples);
                JobOut {
                    groups,
                    events,
                    eval_ns,
                    expiry_ns,
                }
            }
            Job::Expire { graph, mut groups } => {
                beacon.set(stage::EXPIRY);
                let mut events = Vec::new();
                let mut eval_ns = 0u64;
                let mut expiry_ns = 0u64;
                for (gi, grp) in groups.iter_mut() {
                    let expiry0 = grp.engine.stats().expiry_nanos;
                    let t0 = std::time::Instant::now();
                    let mut sink = EvSink {
                        events: &mut events,
                        pos: u32::MAX,
                        group: *gi,
                    };
                    grp.engine.expire_delta(&graph, &mut sink);
                    let elapsed = t0.elapsed().as_nanos() as u64;
                    let stats = grp.engine.stats_mut();
                    stats.eval_ns += elapsed;
                    eval_ns += elapsed;
                    expiry_ns += stats.expiry_nanos - expiry0;
                }
                drop(graph);
                JobOut {
                    groups,
                    events,
                    eval_ns,
                    expiry_ns,
                }
            }
        };
        beacon.set(stage::HANDOFF);
        let sent = results.send(out);
        beacon.set(stage::IDLE);
        beacon.advance();
        if sent.is_err() {
            return; // coordinator gone
        }
    }
    beacon.set(stage::IDLE);
}

/// The worker threads of the pooled schedule plus its retained
/// scratch. Empty (the default) selects the inline schedule; workers
/// hold no query state between micro-batches.
#[derive(Default)]
pub(crate) struct Pool {
    workers: Vec<Worker>,
    /// Per-worker `(eval_ns, expiry_ns)` totals, index-aligned with
    /// `workers`.
    ledger: Vec<(u64, u64)>,
    /// Per-micro-batch `(src, dst, label) → ts` planning map (retained
    /// scratch).
    group_edges: FxHashMap<(u32, u32, u32), Timestamp>,
    /// Retained merge buffer.
    events_scratch: Vec<Ev>,
    /// Reusable `(slot, run start, run end)` fan-out schedule per
    /// merged position segment.
    fan_scratch: Vec<(u32, usize, usize)>,
    /// Worker-wait time of the batch in flight (reset per batch; what
    /// the coordinator spends blocked on worker replies, excluded from
    /// `route_ns`).
    wait_ns: u64,
}

impl Pool {
    pub(crate) fn len(&self) -> usize {
        self.workers.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    pub(crate) fn beacons(&self) -> Vec<Arc<srpq_common::StageBeacon>> {
        self.workers.iter().map(|w| Arc::clone(&w.beacon)).collect()
    }

    pub(crate) fn ledger(&self) -> &[(u64, u64)] {
        &self.ledger
    }

    /// Joins the current workers and starts `n_workers` fresh ones;
    /// returns the retired workers' summed `(eval_ns, expiry_ns)`
    /// ledger for the caller to keep.
    pub(crate) fn respawn(&mut self, n_workers: usize) -> (u64, u64) {
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
    /// The pooled schedule of one slide group of `process_batch` (the
    /// caller already purged the graph at its boundary): split into
    /// micro-batches, cut at deletions and timestamp-changing refreshes,
    /// each run in the two-phase scheme. Returns the time spent blocked
    /// on worker replies.
    pub(crate) fn run_pooled<S: MultiSink>(&mut self, slide: &[StreamTuple], sink: &mut S) -> u64 {
        self.pool.wait_ns = 0;
        let mut i = 0;
        while i < slide.len() {
            let (len, two_stage) = self.plan_group(&slide[i..]);
            if two_stage {
                debug_assert_eq!(len, 1);
                self.run_singleton(slide[i], sink);
            } else {
                self.run_group(&slide[i..i + len], sink);
            }
            i += len;
        }
        self.pool.wait_ns
    }

    /// The pooled schedule of `expire_now` (the caller already purged
    /// the graph): every worker runs the eager expiry pass over its
    /// partition.
    pub(crate) fn expire_pooled<S: MultiSink>(&mut self, sink: &mut S) {
        let (pending, graph) = self.ship(|graph, groups| Job::Expire { graph, groups });
        let events = std::mem::take(&mut self.pool.events_scratch);
        self.collect_and_emit(pending, graph, events, sink);
    }

    /// Cuts the leading micro-batch out of `rest`, the remainder of one
    /// slide group, stopping before any graph mutation a batched
    /// traversal must not see early — explicit deletions and
    /// timestamp-*changing* refreshes of existing edges (phase 1
    /// applying them up front would retroactively change what earlier
    /// positions observe). Those run alone through the two-stage
    /// [`Self::run_singleton`] path (`true` in the return), which
    /// sequences every routed group's slide-expiry *before* the
    /// mutation, as the inline schedule does.
    fn plan_group(&mut self, rest: &[StreamTuple]) -> (usize, bool) {
        let t0 = &rest[0];
        if self.routing.contains_key(&t0.label) {
            let mutating = t0.op == Op::Delete
                || matches!(
                    self.graph.edge_ts(t0.edge.src, t0.edge.dst, t0.label),
                    Some(ts0) if ts0 != t0.ts
                );
            if mutating {
                return (1, true);
            }
        }
        let mut edges = std::mem::take(&mut self.pool.group_edges);
        edges.clear();
        let mut len = rest.len();
        for (j, t) in rest.iter().enumerate() {
            if !self.routing.contains_key(&t.label) {
                continue; // inert: touches neither graph nor engines
            }
            if t.op == Op::Delete {
                len = j.max(1);
                break;
            }
            let key = (t.edge.src.0, t.edge.dst.0, t.label.0);
            let existing = edges
                .get(&key)
                .copied()
                .or_else(|| self.graph.edge_ts(t.edge.src, t.edge.dst, t.label));
            match existing {
                Some(ts0) if ts0 != t.ts && j > 0 => {
                    len = j;
                    break;
                }
                _ => {
                    edges.insert(key, t.ts);
                }
            }
        }
        self.pool.group_edges = edges;
        (len, false)
    }

    /// Runs one mutating singleton (explicit deletion or ts-changing
    /// refresh) in two stages, reproducing the inline interleaving
    /// exactly: (A) **every** routed group advances its clock and runs
    /// any due slide-expiry against the **pre-mutation** graph, inline
    /// on the coordinator; the mutation is then applied; (B) the tuple
    /// fans out normally — the routed groups' expiry already ran (their
    /// clocks moved), so the workers' advance is a no-op and they only
    /// dispatch the tuple against the post-mutation graph, which is
    /// unstamped and therefore visible at every horizon.
    fn run_singleton<S: MultiSink>(&mut self, t: StreamTuple, sink: &mut S) {
        self.tuples_seen += 1;
        let mut targets = std::mem::take(&mut self.route_scratch);
        targets.clear();
        if let Some(set) = self.routing.get(&t.label) {
            targets.extend(set.iter_ones());
        }
        debug_assert!(!targets.is_empty(), "planned as routed");

        // Stage A — pre-mutation advance for every routed group,
        // inline (ascending group order; events carry pos 0, and the
        // stable merge keeps them ahead of the same group's stage-B
        // events).
        let mut events = std::mem::take(&mut self.pool.events_scratch);
        events.clear();
        for &g in &targets {
            let grp = self.groups[g as usize]
                .as_mut()
                .expect("routing targets are live");
            self.tuples_routed += grp.subscribers.len() as u64;
            let mut ev = EvSink {
                events: &mut events,
                pos: 0,
                group: g,
            };
            let expiry0 = grp.engine.stats().expiry_nanos;
            let t0 = std::time::Instant::now();
            grp.engine
                .advance(&self.graph, Visibility::ALL, t.ts, &mut ev);
            let elapsed = t0.elapsed().as_nanos() as u64;
            let stats = grp.engine.stats_mut();
            stats.eval_ns += elapsed;
            self.coord_ns.0 += elapsed;
            self.coord_ns.1 += stats.expiry_nanos - expiry0;
        }

        // Apply the mutation.
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
        self.route_scratch = targets;

        // Stage B — normal fan-out of the singleton (the mutation is
        // unstamped, so every visibility admits it; the routed groups'
        // clocks already advanced, so their expiry does not re-run).
        let (pending, graph) = self.fan_out(&[t]);
        self.collect_and_emit(pending, graph, events, sink);
    }

    /// Runs one insert-only micro-batch through the two-phase scheme.
    fn run_group<S: MultiSink>(&mut self, group: &[StreamTuple], sink: &mut S) {
        // Phase 1 — graph application, once, single-threaded (exactly
        // what the inline schedule does tuple by tuple, with position
        // stamps added).
        for (pos, t) in group.iter().enumerate() {
            self.tuples_seen += 1;
            if t.ts > self.now {
                self.now = t.ts;
            }
            let Some(set) = self.routing.get(&t.label) else {
                continue;
            };
            for g in set.iter_ones() {
                self.tuples_routed += self.groups[g as usize]
                    .as_ref()
                    .expect("routed groups are live")
                    .subscribers
                    .len() as u64;
            }
            debug_assert_eq!(t.op, Op::Insert, "mutating tuples run as singletons");
            self.graph
                .insert_visible_from(t.edge.src, t.edge.dst, t.label, t.ts, pos);
        }

        // Phases 2 + 3 — fan out to the long-lived workers; collect,
        // merge deterministically, deliver.
        let (pending, graph) = self.fan_out(group);
        let events = std::mem::take(&mut self.pool.events_scratch);
        self.collect_and_emit(pending, graph, events, sink);
    }

    /// Ships `group` plus each worker's group partition to the pool.
    fn fan_out(&mut self, group: &[StreamTuple]) -> (Vec<usize>, Arc<WindowGraph>) {
        let tuples = Arc::new(group.to_vec());
        self.ship(|graph, groups| Job::Batch {
            graph,
            tuples: tuples.clone(),
            groups,
        })
    }

    /// Moves the shared graph into an `Arc` — read-only for the
    /// duration of the micro-batch — and sends every worker with a
    /// non-empty partition the job `make` builds for it. Returns the
    /// workers owed a reply and the coordinator's graph handle, which
    /// [`Self::collect_and_emit`] turns back into the plain graph.
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
    /// the plain graph, merges the outboxes in `(arrival, group)` order
    /// (appending to `events`, which may carry a singleton's stage-A
    /// events — the stable sort keeps them ahead of the same group's
    /// stage-B events), clears the batch's visibility stamps, and fans
    /// each group's event run out to its subscribers in ascending slot
    /// order — the inline schedule's fan-out order.
    fn collect_and_emit<S: MultiSink>(
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
            self.pool.ledger[w].0 += out.eval_ns;
            self.pool.ledger[w].1 += out.expiry_ns;
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
        // Fan-out: within each position, the inline schedule emits
        // group buffers per subscriber in ascending *slot* order (a
        // group with several subscribers appears once per subscriber,
        // interleaved by slot) — reproduce that by scheduling each
        // group's contiguous event run under each of its subscribers.
        let mut fan = std::mem::take(&mut self.pool.fan_scratch);
        let mut i = 0;
        while i < events.len() {
            let pos = events[i].pos;
            let mut seg_end = i;
            while seg_end < events.len() && events[seg_end].pos == pos {
                seg_end += 1;
            }
            fan.clear();
            let mut j = i;
            while j < seg_end {
                let g = events[j].group;
                let mut run_end = j + 1;
                while run_end < seg_end && events[run_end].group == g {
                    run_end += 1;
                }
                let subs = &self.groups[g as usize]
                    .as_ref()
                    .expect("groups restored before emit")
                    .subscribers;
                fan.extend(subs.iter().map(|&slot| (slot, j, run_end)));
                j = run_end;
            }
            fan.sort_unstable_by_key(|&(slot, ..)| slot);
            for &(slot, s, e) in &fan {
                for ev in &events[s..e] {
                    if ev.invalidated {
                        sink.invalidate(QueryId(slot), ev.pair, ev.ts);
                    } else {
                        sink.emit(QueryId(slot), ev.pair, ev.ts);
                    }
                }
            }
            i = seg_end;
        }
        events.clear();
        self.pool.events_scratch = events;
        self.pool.fan_scratch = fan;
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
        // pooled fan-out must still deliver per-subscriber streams
        // identical to the inline schedule's, at any worker count.
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
        // the inline schedule's.
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

        // Switching schedules mid-stream, 0 → 3 → 0 workers, with a
        // deletion and a ts-changing refresh after each switch (and a
        // slide crossing in between): the event stream stays
        // byte-identical to an engine that never left the inline
        // schedule.
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
        let (mut inline, ..) = setup(0);
        let mut got = MultiCollectSink::default();
        let mut want = MultiCollectSink::default();
        for (phase, n_workers) in phases.iter().zip([0, 3, 0]) {
            switching.set_workers(n_workers);
            assert_eq!(switching.n_workers(), n_workers);
            switching.process_batch(phase, &mut got);
            inline.process_batch(phase, &mut want);
        }
        switching.expire_now(&mut got);
        inline.expire_now(&mut want);
        assert!(!want.invalidated.is_empty(), "vacuous fixture");
        assert_eq!(got.emitted, want.emitted);
        assert_eq!(got.invalidated, want.invalidated);
        assert_eq!(switching.graph().n_edges(), inline.graph().n_edges());
        assert_eq!(switching.routing_stats(), inline.routing_stats());
    }

    #[test]
    fn eval_time_ledger_is_conserved_across_workers() {
        // Per-group `eval_ns` must sum to exactly what the per-worker
        // and coordinator ledgers recorded: every increment applied to
        // a group's stats is mirrored into whichever thread spent it
        // (worker batch/expire jobs, coordinator inline batches,
        // singleton stage A and backfill replay) — under both
        // schedules.
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
            // back to the inline schedule.
            for next in [2, 0] {
                multi.set_workers(next);
                assert_eq!(multi.worker_totals(), vec![(0, 0); next]);
                assert_eq!(multi.coord_totals(), (ledger_eval, ledger_expiry));
                assert_eq!(multi.stage_totals().eval_ns, ledger_eval);
            }
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
