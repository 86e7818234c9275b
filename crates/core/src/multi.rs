//! Multi-query evaluation over a shared window graph (§7, future work
//! item ii).
//!
//! The paper's conclusion lists "multi-query optimization techniques to
//! share computation across multiple persistent RPQs" as future work.
//! This module implements two layers of that sharing:
//!
//! * one [`WindowGraph`] holds the window content once, instead of one
//!   copy per registered query — the dominant memory term for queries
//!   with overlapping alphabets;
//! * registrations whose automata are **language-equivalent** collapse
//!   into one *shared evaluation group*: thousands of near-duplicate
//!   queries (dashboards instantiating the same template) are evaluated
//!   once, over one Δ forest and one emitted-pair set, and every
//!   emission is fanned out to each subscriber under its own
//!   [`QueryId`] tag;
//! * incoming tuples are **routed by label** through a
//!   label → group-set bitmap index
//!   ([`crate::bitset::DenseBitSet`]): only groups whose query alphabet
//!   contains the tuple's label are invoked at all;
//! * window maintenance (graph purge) happens once per slide, not once
//!   per query.
//!
//! This is the only host of an [`Engine`]: the engine owns no graph,
//! so everything that mutates the window graph — applying each tuple
//! once, purging it at slide crossings — happens here, on one thread,
//! and the group engines only read it.
//!
//! # Groups and signatures
//!
//! Two registrations share a group iff their compiled automata have
//! equal canonical [`DfaSignature`]s *and* equal [`PathSemantics`]:
//! minimal DFAs of the same language over the same alphabet are
//! isomorphic, so signature equality is language-and-alphabet equality,
//! and a group's Δ forest is exactly the forest each subscriber would
//! have built alone. The first registration of a signature founds the
//! group; later ones attach a subscriber tag; deregistration drops the
//! tag and frees the group — forest, emitted-set, containment table —
//! only when the last subscriber leaves.
//!
//! Sharing preserves the single-query event streams **byte-identically**:
//! each routed group evaluates each tuple exactly as a group of its own
//! would (see [the schedule](#the-schedule)), and a group's events for
//! one tuple are fanned out to its subscribers in ascending slot order.
//! A subscriber cannot observe whether it shares its group.
//!
//! # Late joiners
//!
//! A group founded at stream start is *complete*: its Δ forest covers
//! the whole window, so a mid-stream [`register_backfilled`] with the
//! same signature can attach to it directly — the backfill events are
//! replayed through a throwaway scratch engine (the shared forest is
//! not touched), after which the subscriber simply rides the shared
//! stream. The replay is **read-only**: the replayed edges are the
//! graph's own window edges at their own timestamps, so the engine
//! advances and dispatches each one against the graph as it stands and
//! nothing is re-inserted — the graph, its expiry queue and every
//! checkpoint of it are the same as without the registration. A plain
//! mid-stream [`register`] sees only future tuples, so
//! it founds a *private incomplete* group: its partial forest is not
//! equivalent to any other registration's and is never signature-
//! indexed. Sharing is unconditional: a caller that wants one forest
//! per registration registers languages that differ.
//!
//! All queries in one [`MultiQueryEngine`] share a single
//! [`WindowPolicy`]: the shared graph can only be purged at the widest
//! window of its consumers, so heterogeneous windows would forfeit the
//! storage sharing this module exists for.
//!
//! # The schedule
//!
//! Every batch runs one plan-then-execute schedule, the two-phase shape
//! of deterministic batch execution in BOHM (Faleiro & Abadi, VLDB
//! 2015). The engine does not mutate the graph per tuple: each slide
//! group of the batch — cut, and the shared graph purged at its crossed
//! boundary, by the one slide loop in [`process_batch`] — is cut further
//! into **micro-batches** at explicit deletions and timestamp-changing
//! edge refreshes, and each micro-batch runs in two phases:
//!
//! 1. **Plan + apply**: the calling thread applies the micro-batch's
//!    inserts once, stamping every *new* edge with its batch position
//!    ([`WindowGraph::insert_visible_from`]). A deletion or refresh
//!    runs alone: every routed group first advances its clock against
//!    the graph before the mutation, then the mutation is applied.
//! 2. **Evaluate**: each routed group extends on each tuple in arrival
//!    order (`Engine::extend`). A [`Visibility`] horizon per position
//!    hides the in-batch edges a per-tuple run would not have seen yet,
//!    and makes each group's slide-expiry run against the graph as it
//!    stood before the tuple — so each group computes *exactly* what it
//!    would tuple by tuple. The stamps are cleared afterwards.
//!
//! The worker count — [`set_workers`], `--workers N` on the hosts —
//! only decides which threads run phase 2, and the tagged event stream
//! is **byte-identical** to per-tuple [`process`] at any count, also
//! across a mid-stream switch (pinned by `tests/parallel_equivalence.rs`
//! at {0, 1, 2, 4, 8} workers, including mid-stream
//! `register_backfilled`/`deregister`):
//!
//! * **No workers** (the default): the calling thread evaluates the
//!   positions in order and fans each position's events out before the
//!   next, so results stream mid-batch.
//! * **`n ≥ 1` workers** (§5.1 of the paper, lifted from
//!   trees-within-one-query to groups-within-one-host): the unit of
//!   parallelism is the evaluation group — one Δ forest is never touched
//!   by two threads. Live groups are hash-partitioned over the workers
//!   (group id modulo worker count, re-derived every micro-batch, so
//!   registration changes rebalance automatically); each worker
//!   receives its groups plus a handle on the (now read-only) graph,
//!   and the outboxes are merged in deterministic `(arrival position,
//!   group)` order before the fan-out.
//!
//! # Panic safety
//!
//! A panic mid-batch — in a group engine, a worker thread, or the
//! caller's sink — leaves the engine **poisoned**: some group's Δ index
//! may be half-applied, so every later processing *and* registry call
//! (`process`, `process_batch`, `expire_now`, `register`,
//! `register_backfilled`, `deregister`, `set_workers`) panics with a
//! poisoned-engine message instead of silently computing on, or
//! mutating, half-applied state. Rebuild the engine after catching an
//! unwind out of it.
//!
//! # Registration lifecycle
//!
//! Queries come and go at runtime (the `srpq_server` serving layer
//! registers and deregisters them on live windows). The registry is
//! **slot-based**: [`register`] appends a slot and returns its index as
//! the [`QueryId`]; [`deregister`] vacates the slot and detaches the
//! subscriber from its group. Slot indexes are **never reused**, so a
//! `QueryId` held by a subscriber can never silently come to mean a
//! different query; a vacated slot costs one `None` entry. Group ids,
//! by contrast, are internal and recycled through a free list — the
//! group table stays bounded by the peak number of *distinct* live
//! queries. Query names are unique among *live* queries — registering a
//! duplicate is an error (it would make name-based lookups ambiguous),
//! while a deregistered query's name is free for reuse.
//!
//! [`register`]: MultiQueryEngine::register
//! [`register_backfilled`]: MultiQueryEngine::register_backfilled
//! [`deregister`]: MultiQueryEngine::deregister
//! [`set_workers`]: MultiQueryEngine::set_workers
//! [`process`]: MultiQueryEngine::process
//! [`process_batch`]: MultiQueryEngine::process_batch

use crate::bitset::DenseBitSet;
use crate::config::EngineConfig;
use crate::engine::{Engine, PathSemantics};
use crate::schedule::{metered, Ev, EvSink, Pool};
use crate::stats::{EngineStats, IndexSize, StageTotals};
use srpq_automata::{CompiledQuery, DfaSignature};
use srpq_common::{FxHashMap, Label, ResultPair, StreamTuple, Timestamp, VertexId};
use srpq_graph::{Visibility, WindowGraph, WindowPolicy};

/// Identifies a registered query within a [`MultiQueryEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u32);

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Why a registration or deregistration was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// A live query is already registered under this name. Deregister
    /// it first, or pick another name — silently shadowing would make
    /// name-based lookups ambiguous.
    DuplicateName(String),
    /// No live query occupies this id (never registered, or already
    /// deregistered).
    UnknownQuery(QueryId),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::DuplicateName(name) => {
                write!(f, "a live query is already registered as {name:?}")
            }
            QueryError::UnknownQuery(id) => write!(f, "no live query with id {id}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// The one result sink: receives the tagged result streams of a
/// multi-query engine. A consumer of a lone query's plain stream
/// ignores the tag ([`CollectSink`](crate::sink::CollectSink),
/// [`CountSink`](crate::sink::CountSink)).
pub trait MultiSink {
    /// Query `id` discovered `pair` at stream time `ts`.
    fn emit(&mut self, id: QueryId, pair: ResultPair, ts: Timestamp);

    /// Query `id` invalidated `pair` (explicit deletions only).
    fn invalidate(&mut self, id: QueryId, pair: ResultPair, ts: Timestamp) {
        let _ = (id, pair, ts);
    }
}

/// Collects tagged results per query (tests and examples).
#[derive(Debug, Default, Clone)]
pub struct MultiCollectSink {
    /// `(query, pair, ts)` emission log.
    pub emitted: Vec<(QueryId, ResultPair, Timestamp)>,
    /// `(query, pair, ts)` invalidation log.
    pub invalidated: Vec<(QueryId, ResultPair, Timestamp)>,
}

impl MultiSink for MultiCollectSink {
    fn emit(&mut self, id: QueryId, pair: ResultPair, ts: Timestamp) {
        self.emitted.push((id, pair, ts));
    }

    fn invalidate(&mut self, id: QueryId, pair: ResultPair, ts: Timestamp) {
        self.invalidated.push((id, pair, ts));
    }
}

/// The group-key discriminant for path semantics ([`PathSemantics`]
/// carries no `Hash` impl; the tag also doubles as the checkpoint
/// encoding).
fn semantics_tag(semantics: PathSemantics) -> u8 {
    match semantics {
        PathSemantics::Arbitrary => 0,
        PathSemantics::Simple => 1,
    }
}

/// Replays window edges, in timestamp order, into `engine` for
/// backfilled registration `id`. The edges are the graph's own, already
/// stored at their timestamps, so the engine advances to each one and
/// dispatches it against the graph as it stands; the graph is only
/// read. Each edge's events pass through `events` to `sink` under `id`.
fn replay_window<S: MultiSink>(
    engine: &mut Engine,
    graph: &WindowGraph,
    replay: Vec<(VertexId, VertexId, Label, Timestamp)>,
    events: &mut Vec<Ev>,
    id: QueryId,
    sink: &mut S,
) {
    for (u, v, label, ts) in replay {
        let mut out = EvSink {
            events: &mut *events,
            pos: 0,
            group: 0,
        };
        engine.advance(graph, Visibility::ALL, ts, &mut out);
        let tuple = StreamTuple::insert(ts, u, v, label);
        engine.dispatch(graph, Visibility::ALL, tuple, &mut out);
        for ev in events.drain(..) {
            ev.deliver(id, sink);
        }
    }
}

/// One registration slot: the subscriber's name and the evaluation
/// group it rides.
struct Slot {
    name: String,
    group: u32,
}

/// One shared evaluation group: a single engine (Δ forest, emitted-pair
/// set, statistics) serving every subscriber whose automaton is
/// language-equivalent to its query. On a worker pool the whole entry
/// travels to a worker thread and back every micro-batch; the
/// subscriber tags ride along so the registry entry is whole wherever
/// it is.
pub(crate) struct Group {
    pub(crate) engine: Engine,
    /// Live subscriber slots, ascending (slots are allocated
    /// monotonically and pushed in order).
    pub(crate) subscribers: Vec<u32>,
    /// Whether the group's Δ forest covers the whole current window —
    /// true for groups founded at stream start or by backfilled
    /// registration. Only complete groups are signature-indexed and
    /// joinable: an incomplete (plain mid-stream) group's partial
    /// forest is not equivalent to any other registration's.
    complete: bool,
    /// The canonical signature of the group's automaton.
    signature: DfaSignature,
}

/// A [`MultiSink`] that discards everything (throughput measurements
/// and recovery replay).
#[derive(Debug, Default, Clone)]
pub struct NullMultiSink;

impl MultiSink for NullMultiSink {
    #[inline]
    fn emit(&mut self, _id: QueryId, _pair: ResultPair, _ts: Timestamp) {}
}

/// A set of persistent RPQs evaluated together over one shared window
/// graph, with language-equivalent registrations collapsed into shared
/// evaluation groups, on the calling thread or over a worker pool (see
/// the module docs). The fields the schedule in `crate::schedule`
/// drives are crate-visible; the registry indexes stay private to this
/// module.
pub struct MultiQueryEngine {
    config: EngineConfig,
    window: WindowPolicy,
    /// The shared window graph, held plainly: without workers the
    /// schedule pays no reference count. A worker pool moves it into an
    /// `Arc` for the duration of one micro-batch and back.
    pub(crate) graph: WindowGraph,
    /// Registration slots; `None` marks a deregistered query. Slot
    /// indexes are query ids and are never reused.
    slots: Vec<Option<Slot>>,
    /// Evaluation groups; `None` marks a freed group whose id waits on
    /// `free_groups` for reuse (or, mid-micro-batch, one currently
    /// shipped to a worker).
    pub(crate) groups: Vec<Option<Group>>,
    /// Freed group ids, reused LIFO — the group table stays bounded by
    /// the peak number of distinct live queries.
    free_groups: Vec<u32>,
    /// `(signature, semantics)` → joinable group. Only complete groups
    /// are indexed.
    sig_index: FxHashMap<(DfaSignature, u8), u32>,
    /// Live query name → slot (O(1) name lookups at thousands of
    /// registered queries).
    by_name: FxHashMap<String, u32>,
    /// label → set of group ids whose alphabet contains it.
    pub(crate) routing: FxHashMap<Label, DenseBitSet>,
    pub(crate) now: Timestamp,
    pub(crate) tuples_seen: u64,
    pub(crate) tuples_routed: u64,
    /// The worker threads (with none, evaluation runs on the calling
    /// thread) and the schedule's retained scratch.
    pub(crate) pool: Pool,
    /// A previous call panicked mid-batch: engine state may be
    /// half-applied, so further use is refused (see the module docs).
    poisoned: bool,
    /// `(eval_ns, expiry_ns)` spent inside group engines on the calling
    /// thread: evaluation without workers, a singleton's stage A,
    /// backfill replay, and the folded ledgers of retired pools (see
    /// [`Self::coord_totals`]).
    pub(crate) coord_ns: (u64, u64),
    /// Batch count and routing time of the batch path; the evaluation
    /// fields are derived from the ledgers (see [`Self::stage_totals`]).
    stage: StageTotals,
    /// Optional stage beacon published for the sampling profiler (see
    /// [`Self::set_beacon`]). `None` (the default) costs one branch.
    beacon: Option<std::sync::Arc<srpq_common::StageBeacon>>,
}

impl MultiQueryEngine {
    /// Creates an empty multi-query engine over `window` with
    /// paper-default per-query configuration.
    pub fn new(window: WindowPolicy) -> MultiQueryEngine {
        Self::with_config(EngineConfig::with_window(window))
    }

    /// Creates an empty multi-query engine whose registered queries all
    /// share `config` (the window comes from `config.window`). It
    /// starts without workers; see [`Self::set_workers`].
    pub fn with_config(config: EngineConfig) -> MultiQueryEngine {
        MultiQueryEngine {
            config,
            window: config.window,
            graph: WindowGraph::new(),
            slots: Vec::new(),
            groups: Vec::new(),
            free_groups: Vec::new(),
            sig_index: FxHashMap::default(),
            by_name: FxHashMap::default(),
            routing: FxHashMap::default(),
            now: Timestamp::NEG_INFINITY,
            tuples_seen: 0,
            tuples_routed: 0,
            pool: Pool::default(),
            poisoned: false,
            coord_ns: (0, 0),
            stage: StageTotals::default(),
            beacon: None,
        }
    }

    /// Attaches a stage beacon: the batch path publishes which stage
    /// the calling thread is in (route/extend/expiry) through relaxed
    /// atomic stores, read by an external ~1 kHz sampling profiler.
    /// The engine stays free of any metrics dependency — the beacon is
    /// a vocabulary type from `srpq_common`. Worker threads publish
    /// their own beacons — see [`Self::worker_beacons`].
    pub fn set_beacon(&mut self, beacon: std::sync::Arc<srpq_common::StageBeacon>) {
        self.beacon = Some(beacon);
    }

    /// The per-worker stage beacons, index-aligned with the pool
    /// (thread `srpq-multi-worker-{i}`); empty without workers.
    /// Refreshed by [`Self::set_workers`] — re-fetch after it.
    pub fn worker_beacons(&self) -> Vec<std::sync::Arc<srpq_common::StageBeacon>> {
        self.pool.beacons()
    }

    /// Number of worker threads; `0` evaluates on the calling thread.
    pub fn n_workers(&self) -> usize {
        self.pool.len()
    }

    /// Replaces the worker pool with `n_workers` fresh threads; `0`
    /// returns evaluation to the calling thread. Cheap and safe at any
    /// point between batches: workers hold no query state (groups live
    /// in the registry and only travel out per micro-batch), so the
    /// partition re-derives itself on the next batch and the event
    /// stream is unaffected.
    pub fn set_workers(&mut self, n_workers: usize) {
        self.assert_usable();
        // The outgoing pool's evaluation ledger folds into the
        // coordinator's, conserving total attributed time across the
        // switch; the new workers start from zero.
        let (eval, expiry) = self.pool.respawn(n_workers);
        self.coord_ns.0 += eval;
        self.coord_ns.1 += expiry;
    }

    /// Per-worker `(eval_ns, expiry_ns)` totals: the wall-clock each
    /// worker thread spent inside per-group evaluation calls, and the
    /// expiry slice thereof. Together with [`Self::coord_totals`] this
    /// partitions the batch path's evaluation time by the thread that
    /// actually spent it: summing `eval_ns` over the *group* engines
    /// equals worker totals plus coordinator totals (while no group has
    /// been freed — dropping a group drops its side of the ledger).
    pub fn worker_totals(&self) -> &[(u64, u64)] {
        self.pool.ledger()
    }

    /// `(eval_ns, expiry_ns)` spent inside group engines on the calling
    /// thread (evaluation without workers, mutating-singleton stage A,
    /// backfill replay) plus the ledgers of pools retired by
    /// [`Self::set_workers`].
    pub fn coord_totals(&self) -> (u64, u64) {
        self.coord_ns
    }

    /// Cumulative time spent in the batch path ([`Self::process_batch`]),
    /// split into routing and evaluation (with its expiry slice).
    /// `route_ns` is the calling thread's time outside group engines
    /// (label lookup, planning, graph application, merge, fan-out —
    /// worker-wait excluded);
    /// `eval_ns`/`expiry_ns` are the sum of the coordinator and worker
    /// ledgers, so they keep counting evaluation wall-clock even when
    /// workers overlap. Monotone counters — an observability layer
    /// turns per-batch deltas into stage latency histograms without the
    /// engine depending on any metrics crate.
    pub fn stage_totals(&self) -> StageTotals {
        let workers = self.pool.ledger();
        StageTotals {
            eval_ns: self.coord_ns.0 + workers.iter().map(|w| w.0).sum::<u64>(),
            expiry_ns: self.coord_ns.1 + workers.iter().map(|w| w.1).sum::<u64>(),
            ..self.stage
        }
    }

    /// Allocates a group for `query` (free-listed id, routing bits,
    /// fresh engine). The caller decides whether to signature-index it.
    fn alloc_group(
        &mut self,
        query: CompiledQuery,
        semantics: PathSemantics,
        complete: bool,
    ) -> u32 {
        let signature = query.signature();
        let g = match self.free_groups.pop() {
            Some(g) => g,
            None => {
                self.groups.push(None);
                (self.groups.len() - 1) as u32
            }
        };
        for &label in query.dfa().alphabet() {
            self.routing.entry(label).or_default().insert(g);
        }
        self.groups[g as usize] = Some(Group {
            engine: Engine::new(query, self.config, semantics),
            subscribers: Vec::new(),
            complete,
            signature,
        });
        g
    }

    /// Frees group `g`: unthreads its routing bits (labels no live
    /// group speaks disappear from the table), drops its signature
    /// index entry if it owns one, and recycles the id.
    fn free_group(&mut self, g: u32) {
        let grp = self.groups[g as usize]
            .take()
            .expect("freeing a live group");
        for &label in grp.engine.query().dfa().alphabet() {
            if let Some(set) = self.routing.get_mut(&label) {
                set.remove(g);
                if set.is_empty() {
                    self.routing.remove(&label);
                }
            }
        }
        let key = (grp.signature, semantics_tag(grp.engine.semantics()));
        if self.sig_index.get(&key) == Some(&g) {
            self.sig_index.remove(&key);
        }
        self.free_groups.push(g);
    }

    /// Appends a slot subscribed to group `g` under `name`.
    fn attach(&mut self, name: String, g: u32) -> QueryId {
        let id = QueryId(self.slots.len() as u32);
        self.by_name.insert(name.clone(), id.0);
        self.slots.push(Some(Slot { name, group: g }));
        self.groups[g as usize]
            .as_mut()
            .expect("attaching to a live group")
            .subscribers
            .push(id.0);
        id
    }

    /// Registers a query under the engine's shared window. Returns its
    /// id, or [`QueryError::DuplicateName`] if a live query already
    /// carries `name`.
    ///
    /// At stream start (before the first tuple) a registration whose
    /// automaton is language-equivalent to an existing one **joins its
    /// shared group**: evaluation happens once, and the subscriber
    /// receives the exact event stream a group of its own would
    /// produce. Queries can also be registered mid-stream; with plain
    /// `register` they only see tuples from their registration point
    /// onward (standard persistent-query semantics), so they found a
    /// private group — use [`Self::register_backfilled`] to also
    /// evaluate over the current window content and stay joinable.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        query: CompiledQuery,
        semantics: PathSemantics,
    ) -> Result<QueryId, QueryError> {
        self.assert_usable();
        let name = name.into();
        if self.by_name.contains_key(&name) {
            return Err(QueryError::DuplicateName(name));
        }
        let g = if self.now == Timestamp::NEG_INFINITY {
            let key = (query.signature(), semantics_tag(semantics));
            match self.sig_index.get(&key) {
                Some(&g) => g,
                None => {
                    let g = self.alloc_group(query, semantics, true);
                    self.sig_index.insert(key, g);
                    g
                }
            }
        } else {
            // Mid-stream plain registrations see only future tuples:
            // their forests are incomplete, hence unjoinable.
            self.alloc_group(query, semantics, false)
        };
        Ok(self.attach(name, g))
    }

    /// Registers a query and *backfills* it: the current window content
    /// is replayed (in timestamp order), so it immediately reports
    /// results over the live window — the shared graph makes this
    /// catch-up possible without buffering the stream.
    ///
    /// When a complete group with the same signature already exists,
    /// the new query **attaches to it**: the shared Δ forest already
    /// covers the window, so only the backfill *events* are recomputed,
    /// through a throwaway scratch engine, and the shared forest is not
    /// touched. Otherwise a new complete group is founded and the
    /// window is replayed into it for real — and it becomes the join
    /// target for future equivalent registrations. Either replay runs
    /// on the calling thread at any worker count (registration is a
    /// control-plane operation) and only reads the shared graph.
    ///
    /// Name uniqueness follows [`Self::register`]: a duplicate live name
    /// is refused with [`QueryError::DuplicateName`] *before* any state
    /// changes (no slot is consumed, nothing is replayed).
    ///
    /// **Coverage caveat**: the shared graph only materializes tuples
    /// whose label some query spoke *at arrival time* (label routing
    /// skips foreign labels entirely — that skip is the module's memory
    /// win). A backfilled query therefore catches up on exactly the
    /// labels the existing query set kept alive; window content under
    /// labels nobody queried is gone and is not re-derivable.
    pub fn register_backfilled<S: MultiSink>(
        &mut self,
        name: impl Into<String>,
        query: CompiledQuery,
        semantics: PathSemantics,
        sink: &mut S,
    ) -> Result<QueryId, QueryError> {
        self.assert_usable();
        let name = name.into();
        if self.by_name.contains_key(&name) {
            return Err(QueryError::DuplicateName(name));
        }
        if self.now == Timestamp::NEG_INFINITY {
            // Nothing to replay yet — identical to plain registration
            // (and joinable).
            return self.register(name, query, semantics);
        }
        let wm = self.window.watermark(self.now);
        let mut replay = self.graph.edges(wm);
        replay.sort_by_key(|&(.., ts)| ts);

        let key = (query.signature(), semantics_tag(semantics));
        if let Some(&g) = self.sig_index.get(&key) {
            // Join: the shared forest already covers the window. Replay
            // through a scratch engine for the backfill events only.
            let id = self.attach(name, g);
            let mut scratch = Engine::new(query, self.config, semantics);
            let events = &mut self.pool.events_scratch;
            let t0 = std::time::Instant::now();
            replay_window(&mut scratch, &self.graph, replay, events, id, sink);
            let elapsed = t0.elapsed().as_nanos() as u64;
            self.groups[g as usize]
                .as_mut()
                .expect("joined group is live")
                .engine
                .stats_mut()
                .eval_ns += elapsed;
            self.coord_ns.0 += elapsed;
            return Ok(id);
        }
        let g = self.alloc_group(query, semantics, true);
        self.sig_index.insert(key, g);
        Ok(self.replay_into(name, g, replay, sink))
    }

    /// Attaches `name` to freshly founded group `g` and replays the
    /// window content into its engine.
    fn replay_into<S: MultiSink>(
        &mut self,
        name: String,
        g: u32,
        replay: Vec<(VertexId, VertexId, Label, Timestamp)>,
        sink: &mut S,
    ) -> QueryId {
        let id = self.attach(name, g);
        let grp = self.groups[g as usize].as_mut().expect("just founded");
        let events = &mut self.pool.events_scratch;
        // Attribute the replay to the group's evaluation time, like any
        // other pass of its engine, and to the coordinator's ledger.
        metered(&mut grp.engine, &mut self.coord_ns, |e| {
            replay_window(e, &self.graph, replay, events, id, sink)
        });
        id
    }

    /// Deregisters query `id`, vacating its slot and detaching it from
    /// its group. The group's engine — Δ-forest arenas, emitted-pair
    /// set, statistics — is dropped only when the **last** subscriber
    /// leaves, at which point the group is also unthreaded from the
    /// label routing table (labels no other live group speaks disappear
    /// from the table entirely) and its id is recycled. The query id is
    /// never reused; the name becomes free for re-registration.
    /// Aggregate counters ([`Self::total_index_size`],
    /// [`Self::routing_table_size`]) return to what they were before
    /// the query was registered.
    pub fn deregister(&mut self, id: QueryId) -> Result<(), QueryError> {
        self.assert_usable();
        let slot = self
            .slots
            .get_mut(id.0 as usize)
            .ok_or(QueryError::UnknownQuery(id))?;
        let s = slot.take().ok_or(QueryError::UnknownQuery(id))?;
        self.by_name.remove(&s.name);
        let grp = self.groups[s.group as usize]
            .as_mut()
            .expect("slot points at a live group");
        grp.subscribers.retain(|&qi| qi != id.0);
        if grp.subscribers.is_empty() {
            self.free_group(s.group);
        }
        Ok(())
    }

    /// Number of live (registered, not deregistered) queries.
    pub fn n_queries(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Number of registration slots ever allocated, vacated ones
    /// included (ids are `0..n_slots`; persistence support).
    pub fn n_slots(&self) -> usize {
        self.slots.len()
    }

    /// Number of live evaluation groups — at most [`Self::n_queries`];
    /// the gap is the sharing win.
    pub fn groups_live(&self) -> usize {
        self.groups.iter().filter(|g| g.is_some()).count()
    }

    /// Number of group table entries, freed ones included (group ids
    /// are `0..n_group_slots`; persistence support).
    pub fn n_group_slots(&self) -> usize {
        self.groups.len()
    }

    /// Appends a vacant slot, burning one query id (persistence
    /// support: recovery reconstructs deregistered slots so ids stored
    /// in checkpoints keep their meaning).
    pub fn push_vacant_slot(&mut self) {
        self.slots.push(None);
    }

    /// Appends a vacant (freed) group entry and free-lists its id
    /// (persistence support: recovery reconstructs the group table
    /// positionally).
    pub fn push_vacant_group(&mut self) {
        let g = self.groups.len() as u32;
        self.groups.push(None);
        self.free_groups.push(g);
    }

    /// Appends group `n_group_slots` holding a fresh engine for
    /// `query`, re-wiring routing and (for complete groups) the
    /// signature index; returns its id (persistence
    /// support: recovery rebuilds groups positionally from encoded
    /// membership, never by signature re-matching).
    pub fn restore_push_group(
        &mut self,
        query: CompiledQuery,
        semantics: PathSemantics,
        complete: bool,
    ) -> u32 {
        let signature = query.signature();
        let g = self.groups.len() as u32;
        for &label in query.dfa().alphabet() {
            self.routing.entry(label).or_default().insert(g);
        }
        if complete {
            self.sig_index
                .entry((signature.clone(), semantics_tag(semantics)))
                .or_insert(g);
        }
        self.groups.push(Some(Group {
            engine: Engine::new(query, self.config, semantics),
            subscribers: Vec::new(),
            complete,
            signature,
        }));
        g
    }

    /// Appends a slot subscribed to (already restored) group `group`
    /// under `name` (persistence support).
    pub fn restore_subscriber(&mut self, name: impl Into<String>, group: u32) -> QueryId {
        self.attach(name.into(), group)
    }

    /// Ids of all live queries, ascending.
    pub fn query_ids(&self) -> Vec<QueryId> {
        self.queries().map(|(id, _)| id).collect()
    }

    /// Each live query's id and name, ascending, without collecting
    /// them (the per-batch observation path walks this).
    pub fn queries(&self) -> impl Iterator<Item = (QueryId, &str)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| Some((QueryId(i as u32), s.as_ref()?.name.as_str())))
    }

    /// Each live group's engine, ascending by group id, without
    /// collecting them.
    pub fn group_engines(&self) -> impl Iterator<Item = &Engine> + '_ {
        self.groups.iter().flatten().map(|grp| &grp.engine)
    }

    /// Ids of all live groups, ascending.
    pub fn group_ids(&self) -> Vec<u32> {
        self.groups
            .iter()
            .enumerate()
            .filter_map(|(g, s)| s.as_ref().map(|_| g as u32))
            .collect()
    }

    /// The id of the live query registered under `name` (O(1)).
    pub fn query_id(&self, name: &str) -> Option<QueryId> {
        self.by_name.get(name).map(|&slot| QueryId(slot))
    }

    /// The name a query was registered under (`None` for vacated or
    /// never-allocated ids).
    pub fn name(&self, id: QueryId) -> Option<&str> {
        self.slot(id).map(|s| s.name.as_str())
    }

    /// The evaluation group query `id` rides.
    pub fn group_of(&self, id: QueryId) -> Option<u32> {
        self.slot(id).map(|s| s.group)
    }

    /// Live subscriber slots of group `g`, ascending.
    pub fn group_subscribers(&self, g: u32) -> Option<&[u32]> {
        self.group(g).map(|grp| grp.subscribers.as_slice())
    }

    /// The canonical automaton signature of group `g`.
    pub fn group_signature(&self, g: u32) -> Option<&DfaSignature> {
        self.group(g).map(|grp| &grp.signature)
    }

    /// Whether group `g`'s Δ forest covers the whole window (joinable
    /// by backfilled registrations).
    pub fn group_is_complete(&self, g: u32) -> Option<bool> {
        self.group(g).map(|grp| grp.complete)
    }

    /// Per-query engine statistics. Subscribers of one group share one
    /// engine, so their statistics views coincide — aggregate over
    /// [`Self::group_ids`] to avoid double counting.
    pub fn stats(&self, id: QueryId) -> Option<&EngineStats> {
        self.group_for(id).map(|grp| grp.engine.stats())
    }

    /// Per-query Δ index size (shared with any co-subscribers).
    pub fn index_size(&self, id: QueryId) -> Option<IndexSize> {
        self.group_for(id).map(|grp| grp.engine.index_size())
    }

    /// Aggregate Δ index size over all live groups (the leak-check
    /// counter: deregistration returns this to its pre-register value).
    /// O(groups live), independent of the number of registration slots.
    pub fn total_index_size(&self) -> IndexSize {
        let mut total = IndexSize::default();
        for grp in self.groups.iter().flatten() {
            let s = grp.engine.index_size();
            total.trees += s.trees;
            total.nodes += s.nodes;
            total.arena_bytes += s.arena_bytes;
            total.result_bytes += s.result_bytes;
            total.reverse_index_bytes += s.reverse_index_bytes;
        }
        total
    }

    /// Routing-table footprint as `(labels, entries)`: distinct labels
    /// with at least one target group, and total `label → group`
    /// entries.
    pub fn routing_table_size(&self) -> (usize, usize) {
        (
            self.routing.len(),
            self.routing.values().map(DenseBitSet::count).sum(),
        )
    }

    /// Whether query `id` currently reports `pair`.
    pub fn has_result(&self, id: QueryId, pair: ResultPair) -> bool {
        self.group_for(id)
            .map(|grp| grp.engine.has_result(pair))
            .unwrap_or(false)
    }

    fn slot(&self, id: QueryId) -> Option<&Slot> {
        self.slots.get(id.0 as usize).and_then(Option::as_ref)
    }

    fn group(&self, g: u32) -> Option<&Group> {
        self.groups.get(g as usize).and_then(Option::as_ref)
    }

    fn group_for(&self, id: QueryId) -> Option<&Group> {
        self.slot(id).and_then(|s| self.group(s.group))
    }

    /// The shared window graph.
    pub fn graph(&self) -> &WindowGraph {
        &self.graph
    }

    /// The shared per-query configuration template.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The shared window policy.
    pub fn window(&self) -> WindowPolicy {
        self.window
    }

    /// Stream time of the last processed tuple.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// The group engine behind query `id` (shared with any
    /// co-subscribers; persistence support and instrumentation).
    pub fn engine(&self, id: QueryId) -> Option<&Engine> {
        self.group_for(id).map(|grp| &grp.engine)
    }

    /// Mutable access to the group engine behind query `id`
    /// (persistence support: recovery restores per-group cursors).
    pub fn engine_mut(&mut self, id: QueryId) -> Option<&mut Engine> {
        let g = self.group_of(id)?;
        self.group_engine_mut(g)
    }

    /// The engine of group `g`.
    pub fn group_engine(&self, g: u32) -> Option<&Engine> {
        self.group(g).map(|grp| &grp.engine)
    }

    /// Mutable engine of group `g` (persistence support).
    pub fn group_engine_mut(&mut self, g: u32) -> Option<&mut Engine> {
        self.groups
            .get_mut(g as usize)
            .and_then(Option::as_mut)
            .map(|grp| &mut grp.engine)
    }

    /// Mutable shared window graph (persistence support: `Full`
    /// recovery rebuilds the graph by direct insertion).
    pub fn graph_mut(&mut self) -> &mut WindowGraph {
        &mut self.graph
    }

    /// Overwrites the shared clock and routing counters with
    /// checkpointed values (persistence support).
    pub fn restore_cursor(&mut self, now: Timestamp, tuples_seen: u64, tuples_routed: u64) {
        self.now = now;
        self.tuples_seen = tuples_seen;
        self.tuples_routed = tuples_routed;
    }

    /// Tuples seen and logical per-subscriber dispatches performed —
    /// the routing win is `seen × n_queries − routed`, and the sharing
    /// win on top is that `routed` subscribers cost only
    /// `groups-routed` evaluations.
    pub fn routing_stats(&self) -> (u64, u64) {
        (self.tuples_seen, self.tuples_routed)
    }

    /// Publishes `stage` on the attached beacon, if any.
    pub(crate) fn set_stage(&self, stage: u8) {
        if let Some(b) = &self.beacon {
            b.set(stage);
        }
    }

    /// Processes one tuple: a batch of one (see
    /// [`Self::process_batch`]). Per-tuple fan-out cannot amortize a
    /// worker pool's hand-off — prefer batches there.
    pub fn process<S: MultiSink>(&mut self, tuple: StreamTuple, sink: &mut S) {
        self.process_batch(std::slice::from_ref(&tuple), sink);
    }

    /// Processes a batch of tuples (see [the schedule](#the-schedule)
    /// in the module docs). The batch is walked slide group by slide
    /// group: shared window maintenance (the slide-boundary check and
    /// graph purge) runs once per slide interval covered instead of once
    /// per tuple, and group engines still see their tuples in stream
    /// order, so the tagged result stream is byte-identical to per-tuple
    /// processing at any worker count.
    ///
    /// A panic from an engine, worker or sink mid-batch **poisons**
    /// this engine (see the module docs; pinned by
    /// `tests/parallel_equivalence.rs`).
    pub fn process_batch<S: MultiSink>(&mut self, batch: &[StreamTuple], sink: &mut S) {
        use srpq_common::beacon::stage;
        self.assert_usable();
        self.poisoned = true; // cleared on orderly completion
        self.set_stage(stage::ROUTE);
        let t_batch = std::time::Instant::now();
        // Batch time the calling thread spends inside group engines (its
        // own ledger) or blocked on worker replies (whose time the worker
        // ledgers own) is not routing time.
        let off_route0 = self.coord_ns.0 + self.pool.wait_ns;
        let mut i = 0;
        while i < batch.len() {
            let (len, group_now) = self.window.slide_group(self.now, &batch[i..], |t| t.ts);
            if self.now != Timestamp::NEG_INFINITY && self.window.crosses_slide(self.now, group_now)
            {
                self.graph
                    .purge_expired(self.window.lazy_watermark(group_now));
            }
            self.run_slide(&batch[i..i + len], sink);
            i += len;
        }
        self.poisoned = false;
        let total = t_batch.elapsed().as_nanos() as u64;
        let off_route = self.coord_ns.0 + self.pool.wait_ns - off_route0;
        self.stage.batches += 1;
        self.stage.route_ns += total.saturating_sub(off_route);
        self.set_stage(stage::IDLE);
        if let Some(b) = &self.beacon {
            b.advance();
        }
    }

    fn assert_usable(&self) {
        assert!(
            !self.poisoned,
            "MultiQueryEngine is poisoned: a previous batch panicked \
             (engine, worker or sink) and engine state may be \
             half-applied; rebuild the engine instead of reusing it"
        );
    }

    /// Forces an expiry pass for every live group (and a shared graph
    /// purge) at the current eager watermark — across the workers, if
    /// any; expiry events fan out to every subscriber in ascending slot
    /// order.
    pub fn expire_now<S: MultiSink>(&mut self, sink: &mut S) {
        use srpq_common::beacon::stage;
        self.assert_usable();
        self.poisoned = true; // cleared on orderly completion
        self.set_stage(stage::EXPIRY);
        self.graph.purge_expired(self.window.watermark(self.now));
        self.expire_groups(sink);
        self.poisoned = false;
        self.set_stage(stage::IDLE);
        if let Some(b) = &self.beacon {
            b.advance();
        }
    }
}

/// The unit tests' one-query host: a [`MultiQueryEngine`] with a single
/// registration that reads as the query's [`Engine`].
#[cfg(test)]
pub(crate) mod solo {
    use super::*;

    pub(crate) struct Solo {
        pub(crate) multi: MultiQueryEngine,
        id: QueryId,
    }

    impl Solo {
        pub(crate) fn new(
            query: CompiledQuery,
            config: EngineConfig,
            semantics: PathSemantics,
        ) -> Solo {
            let mut multi = MultiQueryEngine::with_config(config);
            let id = multi.register("q", query, semantics).unwrap();
            Solo { multi, id }
        }

        pub(crate) fn process<S: MultiSink>(&mut self, tuple: StreamTuple, sink: &mut S) {
            self.multi.process(tuple, sink);
        }

        pub(crate) fn process_batch<S: MultiSink>(&mut self, batch: &[StreamTuple], sink: &mut S) {
            self.multi.process_batch(batch, sink);
        }

        pub(crate) fn expire_now<S: MultiSink>(&mut self, sink: &mut S) {
            self.multi.expire_now(sink);
        }

        pub(crate) fn graph(&self) -> &WindowGraph {
            self.multi.graph()
        }
    }

    impl std::ops::Deref for Solo {
        type Target = Engine;

        fn deref(&self) -> &Engine {
            self.multi.engine(self.id).unwrap()
        }
    }

    impl std::ops::DerefMut for Solo {
        fn deref_mut(&mut self) -> &mut Engine {
            self.multi.engine_mut(self.id).unwrap()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::solo::Solo;
    use super::*;
    use srpq_common::{LabelInterner, VertexId};

    fn setup() -> (MultiQueryEngine, LabelInterner, QueryId, QueryId) {
        let mut labels = LabelInterner::new();
        let q1 = CompiledQuery::compile("a b", &mut labels).unwrap();
        let q2 = CompiledQuery::compile("b+", &mut labels).unwrap();
        let mut multi = MultiQueryEngine::new(WindowPolicy::new(100, 10));
        let id1 = multi.register("ab", q1, PathSemantics::Arbitrary).unwrap();
        let id2 = multi
            .register("bplus", q2, PathSemantics::Arbitrary)
            .unwrap();
        (multi, labels, id1, id2)
    }

    #[test]
    fn routes_by_label_and_tags_results() {
        let (mut multi, labels, id1, id2) = setup();
        let a = labels.get("a").unwrap();
        let b = labels.get("b").unwrap();
        let v = VertexId;
        let mut sink = MultiCollectSink::default();
        multi.process(StreamTuple::insert(Timestamp(1), v(0), v(1), a), &mut sink);
        multi.process(StreamTuple::insert(Timestamp(2), v(1), v(2), b), &mut sink);
        multi.process(StreamTuple::insert(Timestamp(3), v(2), v(3), b), &mut sink);

        assert!(multi.has_result(id1, ResultPair::new(v(0), v(2))));
        assert!(multi.has_result(id2, ResultPair::new(v(1), v(3))));
        assert!(!multi.has_result(id1, ResultPair::new(v(1), v(3))));

        // Tagging: every emission carries the right query id.
        for &(id, pair, _) in &sink.emitted {
            assert!(multi.has_result(id, pair));
        }
    }

    #[test]
    fn shared_graph_stores_each_edge_once() {
        let (mut multi, labels, _, _) = setup();
        let b = labels.get("b").unwrap();
        let v = VertexId;
        let mut sink = MultiCollectSink::default();
        // Label `b` is in both alphabets: routed to both groups, but
        // the shared graph must hold the edge exactly once.
        multi.process(StreamTuple::insert(Timestamp(1), v(0), v(1), b), &mut sink);
        assert_eq!(multi.graph().n_edges(), 1);
        let (seen, routed) = multi.routing_stats();
        assert_eq!(seen, 1);
        assert_eq!(routed, 2);
    }

    #[test]
    fn unknown_labels_are_not_routed() {
        let (mut multi, _, _, _) = setup();
        let mut labels = LabelInterner::new();
        labels.intern("a");
        labels.intern("b");
        let foreign = labels.intern("zz");
        let v = VertexId;
        let mut sink = MultiCollectSink::default();
        multi.process(
            StreamTuple::insert(Timestamp(1), v(0), v(1), foreign),
            &mut sink,
        );
        let (seen, routed) = multi.routing_stats();
        assert_eq!((seen, routed), (1, 0));
        assert_eq!(multi.graph().n_edges(), 0);
    }

    #[test]
    fn matches_independent_engines() {
        // The multi-engine must produce exactly the results of
        // independently run engines.
        let mut labels = LabelInterner::new();
        let qa = CompiledQuery::compile("a b*", &mut labels).unwrap();
        let qb = CompiledQuery::compile("(a | b)+", &mut labels).unwrap();
        let window = WindowPolicy::new(20, 4);

        let mut multi = MultiQueryEngine::new(window);
        let id_a = multi
            .register("qa", qa.clone(), PathSemantics::Arbitrary)
            .unwrap();
        let id_b = multi
            .register("qb", qb.clone(), PathSemantics::Arbitrary)
            .unwrap();

        let config = EngineConfig::with_window(window);
        let mut solo_a = Solo::new(qa, config, PathSemantics::Arbitrary);
        let mut solo_b = Solo::new(qb, config, PathSemantics::Arbitrary);

        let a = labels.get("a").unwrap();
        let b = labels.get("b").unwrap();
        let v = VertexId;
        let stream: Vec<StreamTuple> = (0..60)
            .map(|i| {
                let src = v(i % 7);
                let dst = v((i * 3 + 1) % 7);
                let label = if i % 2 == 0 { a } else { b };
                StreamTuple::insert(Timestamp(i as i64), src, dst, label)
            })
            .collect();

        let mut msink = MultiCollectSink::default();
        let mut sa = crate::sink::CollectSink::default();
        let mut sb = crate::sink::CollectSink::default();
        for &t in &stream {
            multi.process(t, &mut msink);
            solo_a.process(t, &mut sa);
            solo_b.process(t, &mut sb);
        }
        let multi_a: std::collections::HashSet<_> = msink
            .emitted
            .iter()
            .filter(|&&(id, ..)| id == id_a)
            .map(|&(_, p, _)| p)
            .collect();
        let multi_b: std::collections::HashSet<_> = msink
            .emitted
            .iter()
            .filter(|&&(id, ..)| id == id_b)
            .map(|&(_, p, _)| p)
            .collect();
        let solo_a_pairs: std::collections::HashSet<_> = sa.pairs().into_iter().collect();
        let solo_b_pairs: std::collections::HashSet<_> = sb.pairs().into_iter().collect();
        assert_eq!(multi_a, solo_a_pairs);
        assert_eq!(multi_b, solo_b_pairs);
    }

    #[test]
    fn mid_stream_registration_without_backfill() {
        let mut labels = LabelInterner::new();
        let q1 = CompiledQuery::compile("a", &mut labels).unwrap();
        let mut multi = MultiQueryEngine::new(WindowPolicy::new(100, 10));
        let id1 = multi
            .register("first", q1, PathSemantics::Arbitrary)
            .unwrap();
        let a = labels.get("a").unwrap();
        let v = VertexId;
        let mut sink = MultiCollectSink::default();
        multi.process(StreamTuple::insert(Timestamp(1), v(0), v(1), a), &mut sink);

        // Register a second query after the first tuple: it only sees
        // tuples from now on, so the 0→1→2 chain is not witnessed.
        let q2 = CompiledQuery::compile("a a", &mut labels).unwrap();
        let id2 = multi
            .register("second", q2, PathSemantics::Arbitrary)
            .unwrap();
        multi.process(StreamTuple::insert(Timestamp(2), v(1), v(2), a), &mut sink);

        assert!(multi.has_result(id1, ResultPair::new(v(0), v(1))));
        assert!(!multi.has_result(id2, ResultPair::new(v(0), v(2))));
        assert_eq!(multi.name(id2), Some("second"));
        assert!(multi.stats(id2).is_some());
    }

    #[test]
    fn mid_stream_registration_with_backfill() {
        let mut labels = LabelInterner::new();
        let q1 = CompiledQuery::compile("a", &mut labels).unwrap();
        let mut multi = MultiQueryEngine::new(WindowPolicy::new(100, 10));
        let _ = multi
            .register("first", q1, PathSemantics::Arbitrary)
            .unwrap();
        let a = labels.get("a").unwrap();
        let v = VertexId;
        let mut sink = MultiCollectSink::default();
        multi.process(StreamTuple::insert(Timestamp(1), v(0), v(1), a), &mut sink);

        // Backfilled registration replays the live window into the new
        // query's Δ from the shared graph.
        let q2 = CompiledQuery::compile("a a", &mut labels).unwrap();
        let id2 = multi
            .register_backfilled("second", q2, PathSemantics::Arbitrary, &mut sink)
            .unwrap();
        multi.process(StreamTuple::insert(Timestamp(2), v(1), v(2), a), &mut sink);

        assert!(multi.has_result(id2, ResultPair::new(v(0), v(2))));
        assert!(multi.index_size(id2).unwrap().nodes > 0);
        // The backfill replays window edges, not expired history.
        assert_eq!(multi.graph().n_edges(), 2);
    }

    #[test]
    fn deletions_propagate_to_all_queries() {
        let (mut multi, labels, id1, id2) = setup();
        let a = labels.get("a").unwrap();
        let b = labels.get("b").unwrap();
        let v = VertexId;
        let mut sink = MultiCollectSink::default();
        multi.process(StreamTuple::insert(Timestamp(1), v(0), v(1), a), &mut sink);
        multi.process(StreamTuple::insert(Timestamp(2), v(1), v(2), b), &mut sink);
        assert!(multi.has_result(id1, ResultPair::new(v(0), v(2))));
        assert!(multi.has_result(id2, ResultPair::new(v(1), v(2))));

        multi.process(StreamTuple::delete(Timestamp(3), v(1), v(2), b), &mut sink);
        assert!(!multi.has_result(id1, ResultPair::new(v(0), v(2))));
        assert!(!multi.has_result(id2, ResultPair::new(v(1), v(2))));
        assert_eq!(multi.graph().n_edges(), 1);
        assert_eq!(sink.invalidated.len(), 2);
    }

    #[test]
    fn expire_now_runs_all_queries() {
        let (mut multi, labels, _, _) = setup();
        let b = labels.get("b").unwrap();
        let v = VertexId;
        let mut sink = MultiCollectSink::default();
        multi.process(StreamTuple::insert(Timestamp(1), v(0), v(1), b), &mut sink);
        multi.process(
            StreamTuple::insert(Timestamp(500), v(1), v(2), b),
            &mut sink,
        );
        multi.expire_now(&mut sink);
        // The t=1 edge is far outside the 100-unit window.
        assert_eq!(multi.graph().n_edges(), 1);
    }

    #[test]
    fn duplicate_names_are_refused() {
        let mut labels = LabelInterner::new();
        let q1 = CompiledQuery::compile("a", &mut labels).unwrap();
        let q2 = CompiledQuery::compile("a b", &mut labels).unwrap();
        let mut multi = MultiQueryEngine::new(WindowPolicy::new(100, 10));
        let id1 = multi.register("q", q1, PathSemantics::Arbitrary).unwrap();

        // Plain and backfilled registration both refuse the live name,
        // leaving no trace (no burnt slot, no routing entries).
        let before = multi.routing_table_size();
        let err = multi
            .register("q", q2.clone(), PathSemantics::Arbitrary)
            .unwrap_err();
        assert_eq!(err, QueryError::DuplicateName("q".into()));
        let mut sink = MultiCollectSink::default();
        let err = multi
            .register_backfilled("q", q2.clone(), PathSemantics::Simple, &mut sink)
            .unwrap_err();
        assert_eq!(err, QueryError::DuplicateName("q".into()));
        assert_eq!(multi.n_slots(), 1);
        assert_eq!(multi.routing_table_size(), before);
        assert!(sink.emitted.is_empty());
        assert_eq!(multi.query_id("q"), Some(id1));

        // After deregistration the name is free again.
        multi.deregister(id1).unwrap();
        let id2 = multi.register("q", q2, PathSemantics::Arbitrary).unwrap();
        assert_ne!(id1, id2);
        assert_eq!(multi.query_id("q"), Some(id2));
    }

    #[test]
    fn deregister_is_leak_free() {
        // Pin the satellite contract: register → stream → deregister
        // returns every aggregate counter to its pre-register baseline.
        let mut labels = LabelInterner::new();
        let keeper = CompiledQuery::compile("a b", &mut labels).unwrap();
        let transient = CompiledQuery::compile("(b | c)+", &mut labels).unwrap();
        let a = labels.get("a").unwrap();
        let b = labels.get("b").unwrap();
        let c = labels.get("c").unwrap();
        let v = VertexId;

        let mut multi = MultiQueryEngine::new(WindowPolicy::new(1000, 10));
        let keep_id = multi
            .register("keeper", keeper, PathSemantics::Arbitrary)
            .unwrap();
        let mut sink = MultiCollectSink::default();
        for i in 0..40i64 {
            let label = [a, b, c][(i % 3) as usize];
            multi.process(
                StreamTuple::insert(
                    Timestamp(i),
                    v((i % 9) as u32),
                    v(((i * 5 + 2) % 9) as u32),
                    label,
                ),
                &mut sink,
            );
        }

        // Baseline *after* the keeper has state, *before* the transient
        // query exists.
        let base_index = multi.total_index_size();
        let base_routing = multi.routing_table_size();
        let base_keeper_index = multi.index_size(keep_id).unwrap();
        let base_results = sink.emitted.len();

        let tid = multi
            .register_backfilled("transient", transient, PathSemantics::Arbitrary, &mut sink)
            .unwrap();
        for i in 40..80i64 {
            let label = [a, b, c][(i % 3) as usize];
            multi.process(
                StreamTuple::insert(
                    Timestamp(i),
                    v((i % 9) as u32),
                    v(((i * 5 + 2) % 9) as u32),
                    label,
                ),
                &mut sink,
            );
        }
        // The transient query really did grow state: its own Δ nodes,
        // routing entries for `c` (spoken by nobody else), results.
        assert!(multi.index_size(tid).unwrap().nodes > 0);
        assert!(multi.routing_table_size() > base_routing);
        assert!(sink.emitted.iter().any(|&(id, ..)| id == tid));

        multi.deregister(tid).unwrap();

        // The keeper is untouched; the transient's Δ forest, routing
        // entries, and result set are gone. The keeper kept processing
        // between baseline and now, so compare against its own live
        // numbers, not a stale snapshot.
        assert_eq!(multi.index_size(keep_id).unwrap(), multi.total_index_size());
        assert_eq!(multi.routing_table_size(), base_routing);
        assert_eq!(multi.n_queries(), 1);
        assert_eq!(multi.groups_live(), 1);
        assert!(multi.index_size(tid).is_none());
        assert!(multi.stats(tid).is_none());
        assert!(!multi.has_result(tid, ResultPair::new(v(0), v(1))));
        assert!(multi.name(tid).is_none());
        // Drain the whole window: with the transient gone, aggregate
        // state shrinks back through the same expiry path as a
        // single-query engine — nothing orphaned keeps nodes alive.
        multi.process(
            StreamTuple::insert(Timestamp(5000), v(0), v(1), a),
            &mut sink,
        );
        multi.expire_now(&mut sink);
        assert!(
            multi.total_index_size().nodes <= base_index.nodes.max(base_keeper_index.nodes) + 2
        );
        // Deregistering twice (or a never-registered id) is an error.
        assert_eq!(multi.deregister(tid), Err(QueryError::UnknownQuery(tid)));
        assert_eq!(
            multi.deregister(QueryId(99)),
            Err(QueryError::UnknownQuery(QueryId(99)))
        );
        let _ = base_results;
    }

    #[test]
    fn deregistered_queries_stop_receiving_tuples() {
        let (mut multi, labels, id1, id2) = setup();
        let b = labels.get("b").unwrap();
        let v = VertexId;
        let mut sink = MultiCollectSink::default();
        multi.process(StreamTuple::insert(Timestamp(1), v(0), v(1), b), &mut sink);
        multi.deregister(id2).unwrap();
        sink.emitted.clear();
        // Both per-tuple and batched paths must skip the vacated slot.
        multi.process(StreamTuple::insert(Timestamp(2), v(1), v(2), b), &mut sink);
        multi.process_batch(
            &[StreamTuple::insert(Timestamp(3), v(2), v(3), b)],
            &mut sink,
        );
        multi.expire_now(&mut sink);
        assert!(sink.emitted.iter().all(|&(id, ..)| id != id2));
        let (_, routed_before) = multi.routing_stats();
        multi.process(StreamTuple::insert(Timestamp(4), v(3), v(4), b), &mut sink);
        let (_, routed_after) = multi.routing_stats();
        // Only the live `ab` query is routed to now.
        assert_eq!(routed_after - routed_before, 1);
        assert_eq!(multi.query_ids(), vec![id1]);
    }

    // ------------------------------------------------------------------
    // Shared-group lifecycle.

    #[test]
    fn equivalent_registrations_share_one_group() {
        let mut labels = LabelInterner::new();
        let mut multi = MultiQueryEngine::new(WindowPolicy::new(100, 10));
        let mut ids = Vec::new();
        for (i, expr) in ["(a | b)+", "(b | a)+", "(a|b)(a|b)*"].iter().enumerate() {
            let q = CompiledQuery::compile(expr, &mut labels).unwrap();
            ids.push(
                multi
                    .register(format!("q{i}"), q, PathSemantics::Arbitrary)
                    .unwrap(),
            );
        }
        let distinct = CompiledQuery::compile("a b", &mut labels).unwrap();
        let id_d = multi
            .register("distinct", distinct, PathSemantics::Arbitrary)
            .unwrap();
        assert_eq!(multi.n_queries(), 4);
        assert_eq!(multi.groups_live(), 2);
        let g = multi.group_of(ids[0]).unwrap();
        assert!(ids.iter().all(|&id| multi.group_of(id) == Some(g)));
        assert_ne!(multi.group_of(id_d), Some(g));
        assert_eq!(multi.group_subscribers(g).unwrap().len(), 3);
        assert_eq!(multi.group_is_complete(g), Some(true));
        // Same language, different semantics: never shared.
        let simple = CompiledQuery::compile("(a | b)+", &mut labels).unwrap();
        let id_s = multi
            .register("simple", simple, PathSemantics::Simple)
            .unwrap();
        assert_ne!(multi.group_of(id_s), Some(g));
        assert_eq!(multi.groups_live(), 3);
    }

    #[test]
    fn shared_group_fans_out_identical_streams() {
        let mut labels = LabelInterner::new();
        let q1 = CompiledQuery::compile("a b*", &mut labels).unwrap();
        let q2 = CompiledQuery::compile("a (b)*", &mut labels).unwrap();
        let mut multi = MultiQueryEngine::new(WindowPolicy::new(20, 4));
        let id1 = multi.register("one", q1, PathSemantics::Arbitrary).unwrap();
        let id2 = multi.register("two", q2, PathSemantics::Arbitrary).unwrap();
        assert_eq!(multi.groups_live(), 1);

        let a = labels.get("a").unwrap();
        let b = labels.get("b").unwrap();
        let v = VertexId;
        let mut sink = MultiCollectSink::default();
        for i in 0..50i64 {
            let label = if i % 2 == 0 { a } else { b };
            let t = StreamTuple::insert(
                Timestamp(i),
                v((i % 6) as u32),
                v(((i * 5 + 1) % 6) as u32),
                label,
            );
            multi.process(t, &mut sink);
        }
        multi.expire_now(&mut sink);
        let stream = |id: QueryId, log: &[(QueryId, ResultPair, Timestamp)]| {
            log.iter()
                .filter(|&&(i, ..)| i == id)
                .map(|&(_, p, ts)| (p, ts))
                .collect::<Vec<_>>()
        };
        assert_eq!(stream(id1, &sink.emitted), stream(id2, &sink.emitted));
        assert_eq!(
            stream(id1, &sink.invalidated),
            stream(id2, &sink.invalidated)
        );
        assert!(!stream(id1, &sink.emitted).is_empty());
        // One evaluation, two logical dispatches per routed tuple.
        let (seen, routed) = multi.routing_stats();
        assert_eq!(routed, seen * 2);
        assert_eq!(multi.stats(id1).unwrap().tuples_routed, seen);
    }

    #[test]
    fn mid_stream_plain_register_stays_private() {
        let mut labels = LabelInterner::new();
        let q1 = CompiledQuery::compile("a+", &mut labels).unwrap();
        let mut multi = MultiQueryEngine::new(WindowPolicy::new(100, 10));
        let id1 = multi.register("one", q1, PathSemantics::Arbitrary).unwrap();
        let a = labels.get("a").unwrap();
        let v = VertexId;
        let mut sink = MultiCollectSink::default();
        multi.process(StreamTuple::insert(Timestamp(1), v(0), v(1), a), &mut sink);
        // Same signature, but mid-stream without backfill: the new
        // query must not see pre-registration results, so it cannot
        // join the complete group.
        let q2 = CompiledQuery::compile("a a*", &mut labels).unwrap();
        let id2 = multi.register("two", q2, PathSemantics::Arbitrary).unwrap();
        assert_ne!(multi.group_of(id1), multi.group_of(id2));
        assert_eq!(
            multi.group_is_complete(multi.group_of(id2).unwrap()),
            Some(false)
        );
        multi.process(StreamTuple::insert(Timestamp(2), v(1), v(2), a), &mut sink);
        assert!(multi.has_result(id1, ResultPair::new(v(0), v(1))));
        assert!(!multi.has_result(id2, ResultPair::new(v(0), v(1))));
        assert!(multi.has_result(id2, ResultPair::new(v(1), v(2))));
    }

    #[test]
    fn backfilled_late_joiner_attaches_to_complete_group() {
        let mut labels = LabelInterner::new();
        let q1 = CompiledQuery::compile("a b", &mut labels).unwrap();
        let mut multi = MultiQueryEngine::new(WindowPolicy::new(100, 10));
        let id1 = multi.register("one", q1, PathSemantics::Arbitrary).unwrap();
        let a = labels.get("a").unwrap();
        let b = labels.get("b").unwrap();
        let v = VertexId;
        let mut sink = MultiCollectSink::default();
        multi.process(StreamTuple::insert(Timestamp(1), v(0), v(1), a), &mut sink);
        multi.process(StreamTuple::insert(Timestamp(2), v(1), v(2), b), &mut sink);

        let nodes_before = multi.total_index_size().nodes;
        let q2 = CompiledQuery::compile("(a) (b)", &mut labels).unwrap();
        let id2 = multi
            .register_backfilled("two", q2, PathSemantics::Arbitrary, &mut sink)
            .unwrap();
        // Joined, not copied: same group, no new Δ nodes.
        assert_eq!(multi.group_of(id1), multi.group_of(id2));
        assert_eq!(multi.groups_live(), 1);
        assert_eq!(multi.total_index_size().nodes, nodes_before);
        // The backfill replayed the window result to the late joiner.
        assert!(sink
            .emitted
            .iter()
            .any(|&(id, p, _)| id == id2 && p == ResultPair::new(v(0), v(2))));
        assert!(multi.has_result(id2, ResultPair::new(v(0), v(2))));
        // And it rides the shared stream from here on.
        multi.process(StreamTuple::insert(Timestamp(3), v(2), v(3), a), &mut sink);
        multi.process(StreamTuple::insert(Timestamp(4), v(3), v(4), b), &mut sink);
        assert!(multi.has_result(id2, ResultPair::new(v(2), v(4))));
    }

    #[test]
    fn group_frees_only_after_last_subscriber_leaves() {
        let mut labels = LabelInterner::new();
        let mut multi = MultiQueryEngine::new(WindowPolicy::new(100, 10));
        let mk = |labels: &mut LabelInterner| CompiledQuery::compile("a+", labels).unwrap();
        let id1 = multi
            .register("one", mk(&mut labels), PathSemantics::Arbitrary)
            .unwrap();
        let id2 = multi
            .register("two", mk(&mut labels), PathSemantics::Arbitrary)
            .unwrap();
        let g = multi.group_of(id1).unwrap();
        assert_eq!(multi.group_of(id2), Some(g));

        let a = labels.get("a").unwrap();
        let v = VertexId;
        let mut sink = MultiCollectSink::default();
        multi.process(StreamTuple::insert(Timestamp(1), v(0), v(1), a), &mut sink);

        multi.deregister(id1).unwrap();
        // The survivor keeps the group, its state, and its results.
        assert_eq!(multi.groups_live(), 1);
        assert!(multi.has_result(id2, ResultPair::new(v(0), v(1))));
        sink.emitted.clear();
        multi.process(StreamTuple::insert(Timestamp(2), v(1), v(2), a), &mut sink);
        assert!(sink.emitted.iter().any(|&(id, ..)| id == id2));
        assert!(sink.emitted.iter().all(|&(id, ..)| id != id1));

        multi.deregister(id2).unwrap();
        assert_eq!(multi.groups_live(), 0);
        assert_eq!(multi.routing_table_size(), (0, 0));
        assert_eq!(multi.total_index_size(), IndexSize::default());
        // The freed id is recycled for the next group.
        let id3 = multi
            .register("three", mk(&mut labels), PathSemantics::Arbitrary)
            .unwrap();
        assert_eq!(multi.group_of(id3), Some(g));
        assert_eq!(multi.n_group_slots(), 1);
    }

    #[test]
    fn backfill_leaves_the_shared_graph_as_it_was() {
        // An `a`-ring of 300 vertices, one edge per tick, |W| = 100,
        // β = 10: the window holds 100 edges. At t = 1000 one backfilled
        // registration joins the `a+` group and one founds a group of
        // its own. Their replays only read the graph, so from then on it
        // matches, edge for edge and byte for byte, a twin run without
        // them (a replay that re-inserted the window's edges queued each
        // a second time and kept it up to one more window), and the
        // original query's stream is unchanged.
        let mut labels = LabelInterner::new();
        let a = labels.intern("a");
        let window = WindowPolicy::new(100, 10);
        let mut compile = |expr: &str| CompiledQuery::compile(expr, &mut labels).unwrap();
        let (mut twin, mut multi) = (MultiQueryEngine::new(window), MultiQueryEngine::new(window));
        let base = twin
            .register("base", compile("a+"), PathSemantics::Arbitrary)
            .unwrap();
        multi
            .register("base", compile("a+"), PathSemantics::Arbitrary)
            .unwrap();
        let (mut twin_sink, mut sink) = (MultiCollectSink::default(), MultiCollectSink::default());
        for i in 0..1500u32 {
            if i == 1000 {
                let (joiner, founder) = (compile("a a*"), compile("a a"));
                let joiner = multi
                    .register_backfilled("joiner", joiner, PathSemantics::Arbitrary, &mut sink)
                    .unwrap();
                let founder = multi
                    .register_backfilled("founder", founder, PathSemantics::Arbitrary, &mut sink)
                    .unwrap();
                assert_eq!(multi.group_of(joiner), multi.group_of(base));
                assert_ne!(multi.group_of(founder), multi.group_of(base));
            }
            let (u, v) = (VertexId(i % 300), VertexId((i + 1) % 300));
            let t = StreamTuple::insert(Timestamp(i64::from(i)), u, v, a);
            twin.process(t, &mut twin_sink);
            multi.process(t, &mut sink);
            let (got, want) = (multi.graph(), twin.graph());
            assert_eq!(got.n_edges(), want.n_edges(), "after t = {i}");
            assert_eq!(got.heap_bytes(), want.heap_bytes(), "after t = {i}");
        }
        let of_base = |log: &[(QueryId, ResultPair, Timestamp)]| {
            log.iter()
                .filter(|&&(id, ..)| id == base)
                .copied()
                .collect::<Vec<_>>()
        };
        assert!(!of_base(&twin_sink.emitted).is_empty());
        assert_eq!(of_base(&sink.emitted), of_base(&twin_sink.emitted));
        assert_eq!(of_base(&sink.invalidated), of_base(&twin_sink.invalidated));
    }
}
