//! The one scenario runner: a [`Scenario`] (config, stream, script) run
//! under a [`Schedule`] into a [`Run`], and the comparators the suites
//! hold runs to.

use crate::{random_stream, Oracle, StreamSpec};
use srpq_automata::CompiledQuery;
use srpq_common::{LabelInterner, ResultPair, StreamTuple, Timestamp};
use srpq_core::{EngineConfig, MultiCollectSink, MultiQueryEngine, PathSemantics, QueryId};
use srpq_persist::{CheckpointStrategy, DurabilityConfig, Durable, Host, SyncPolicy};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A tagged result event: `(query, pair, stream timestamp)`.
pub type Event = (QueryId, ResultPair, Timestamp);

/// One operation of a [`Scenario`]'s script.
#[derive(Debug, Clone)]
pub enum Step {
    /// Feed the next `n` tuples (fewer at the stream's end), cut into
    /// batches as the schedule says.
    Ingest(usize),
    /// Register `(name, expr, semantics)`; `true` backfills
    /// ([`MultiQueryEngine::register_backfilled`]).
    Register(String, String, PathSemantics, bool),
    /// Deregister the live query of this name.
    Deregister(String),
    /// Move evaluation onto this many worker threads (0 = the caller).
    SetWorkers(usize),
    /// Force an expiry pass ([`MultiQueryEngine::expire_now`]).
    ExpireNow,
    /// Durable schedules drop the engine and recover it from its
    /// directory at the same worker count; in memory, nothing happens.
    Crash,
}

/// Feeds the rest of the stream.
pub const REST: Step = Step::Ingest(usize::MAX);

impl Step {
    /// A plain registration.
    pub fn register(name: &str, expr: &str, semantics: PathSemantics) -> Step {
        Step::Register(name.into(), expr.into(), semantics, false)
    }

    /// A backfilled registration.
    pub fn backfill(name: &str, expr: &str, semantics: PathSemantics) -> Step {
        Step::Register(name.into(), expr.into(), semantics, true)
    }
}

/// What to run: an engine config, the labels queries compile against,
/// a stream and a script over it.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The engine's configuration.
    pub config: EngineConfig,
    /// The interner every registration (and recovery) compiles with.
    pub labels: LabelInterner,
    /// The tuples [`Step::Ingest`] feeds, in order.
    pub stream: Vec<StreamTuple>,
    /// The script.
    pub steps: Vec<Step>,
}

/// How [`Step::Ingest`] cuts tuples into batches.
#[derive(Debug, Clone)]
pub enum Chunks {
    /// Batches cycling through these sizes, restarting at each step;
    /// `[1]` is per-tuple processing.
    Sizes(Vec<usize>),
    /// One batch per run of equal timestamps.
    Timestamps,
}

impl Chunks {
    fn cut<'t>(&self, mut tuples: &'t [StreamTuple]) -> Vec<&'t [StreamTuple]> {
        let mut out = Vec::new();
        while !tuples.is_empty() {
            let n = match self {
                Chunks::Sizes(sizes) => sizes[out.len() % sizes.len()],
                Chunks::Timestamps => tuples.iter().take_while(|t| t.ts == tuples[0].ts).count(),
            };
            let (batch, rest) = tuples.split_at(n.min(tuples.len()));
            out.push(batch);
            tuples = rest;
        }
        out
    }
}

/// How to run a [`Scenario`].
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Batch boundaries.
    pub chunks: Chunks,
    /// Worker threads at the start (0 = the calling thread).
    pub workers: usize,
    /// In memory (`None`), or durable under this checkpoint strategy:
    /// the engine logs every batch and checkpoints after every
    /// registration change and forced expiry, as `serve` does after a
    /// registry change — neither is in the log.
    pub durable: Option<CheckpointStrategy>,
    /// Every registration in an evaluation group of its own: its
    /// expression gains the alternative `| _private{n}`, a label of its
    /// own that never occurs in the stream, so no two languages are
    /// equal and each still reports exactly what it did.
    pub private: bool,
}

impl Schedule {
    /// Per-tuple processing on the calling thread, in memory: the
    /// reference schedule.
    pub fn per_tuple() -> Schedule {
        Schedule::chunks(Chunks::Sizes(vec![1]))
    }

    /// Batches of `size` tuples.
    pub fn batches(size: usize) -> Schedule {
        Schedule::chunks(Chunks::Sizes(vec![size]))
    }

    /// Batches cut as `chunks` says, on the calling thread, in memory.
    pub fn chunks(chunks: Chunks) -> Schedule {
        let (workers, durable, private) = (0, None, false);
        Schedule {
            chunks,
            workers,
            durable,
            private,
        }
    }

    /// This schedule starting on `n` worker threads.
    pub fn workers(self, n: usize) -> Schedule {
        Schedule { workers: n, ..self }
    }

    /// This schedule, durable under `strategy`.
    pub fn durable(self, strategy: CheckpointStrategy) -> Schedule {
        let durable = Some(strategy);
        Schedule { durable, ..self }
    }

    /// This schedule with private groups.
    pub fn private(self) -> Schedule {
        let private = true;
        Schedule { private, ..self }
    }
}

/// The durability the runner (and any test that drives [`Durable`]
/// itself) uses: small WAL segments and a checkpoint every three slides,
/// so short streams rotate segments and checkpoint several times.
pub fn durability(strategy: CheckpointStrategy) -> DurabilityConfig {
    DurabilityConfig {
        sync: SyncPolicy::Batch,
        strategy,
        checkpoint_every: 3,
        segment_bytes: 2 << 10,
    }
}

/// A fresh directory under the system temp directory, removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    /// A new empty directory path whose name carries `tag`.
    pub fn new(tag: &str) -> TempDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("srpq-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A scenario being run: the hosted engine and every tagged event it
/// produced. [`Scenario::run`] applies the whole script;
/// [`Scenario::run_to`] and [`Run::steps`] let a test look between steps.
pub struct Run<'s> {
    scenario: &'s Scenario,
    schedule: Schedule,
    host: Host,
    labels: LabelInterner,
    workers: usize,
    /// Script steps applied, and tuples fed.
    at: (usize, usize),
    events: MultiCollectSink,
    /// `(emitted, invalidated)` event counts after each applied step.
    pub marks: Vec<(usize, usize)>,
    /// Every backfilled registration, in order.
    pub backfills: Vec<Backfill>,
    dir: Option<TempDir>,
}

/// One backfilled registration of a [`Run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Backfill {
    /// The registered query.
    pub id: QueryId,
    /// Its backfill events' index ranges in `(emitted, invalidated)`.
    pub events: (Range<usize>, Range<usize>),
    /// Whether it attached to a live group instead of founding one.
    pub attached: bool,
}

impl Scenario {
    /// `queries` registered at stream start over `stream`, then
    /// `script`, compiled against [`crate::labels`]`(stream.labels)`.
    pub fn new(
        config: EngineConfig,
        stream: &StreamSpec,
        queries: &[(&str, &str, PathSemantics)],
        script: &[Step],
    ) -> Scenario {
        let register = queries.iter().map(|&(n, e, s)| Step::register(n, e, s));
        Scenario {
            config,
            labels: crate::labels(stream.labels),
            stream: random_stream(stream),
            steps: register.chain(script.iter().cloned()).collect(),
        }
    }

    /// This scenario without its [`Step::SetWorkers`]: the reference
    /// that stays on the calling thread throughout.
    pub fn sequential(&self) -> Scenario {
        let mut sc = self.clone();
        sc.steps.retain(|s| !matches!(s, Step::SetWorkers(_)));
        sc
    }

    /// The whole script under `schedule`.
    pub fn run(&self, schedule: &Schedule) -> Run<'_> {
        self.run_to(schedule, self.steps.len())
    }

    /// The script's first `n` steps under `schedule`.
    pub fn run_to(&self, schedule: &Schedule, n: usize) -> Run<'_> {
        let mut engine = MultiQueryEngine::with_config(self.config);
        engine.set_workers(schedule.workers);
        let (host, dir) = match schedule.durable {
            None => (Host::from(engine), None),
            Some(strategy) => {
                let dir = TempDir::new("harness");
                let durable = Durable::create(engine, dir.path(), durability(strategy))
                    .expect("creates a durable engine");
                (Host::from(durable), Some(dir))
            }
        };
        let mut run = Run {
            scenario: self,
            schedule: schedule.clone(),
            host,
            labels: self.labels.clone(),
            workers: schedule.workers,
            at: (0, 0),
            events: MultiCollectSink::default(),
            marks: Vec::new(),
            backfills: Vec::new(),
            dir,
        };
        run.steps(n);
        run
    }
}

impl Run<'_> {
    /// Applies the script's next `n` steps (fewer at its end).
    pub fn steps(&mut self, n: usize) {
        let scenario = self.scenario;
        for step in scenario.steps.iter().skip(self.at.0).take(n) {
            self.apply(step);
            self.at.0 += 1;
        }
    }

    fn apply(&mut self, step: &Step) {
        let (stream, pos) = (&self.scenario.stream, self.at.1);
        let ctx = format!("{:?}, at tuple {pos}", self.schedule);
        match step {
            Step::Ingest(n) => {
                let end = pos.saturating_add(*n).min(stream.len());
                for batch in self.schedule.chunks.cut(&stream[pos..end]) {
                    let fed = self.host.process_batch(batch, &mut self.events);
                    fed.unwrap_or_else(|e| panic!("{ctx}: {e}"));
                }
                self.at.1 = end;
            }
            Step::Register(name, expr, semantics, backfill) => {
                let expr = match self.schedule.private {
                    true => format!("({expr}) | _private{}", self.at.0),
                    false => expr.clone(),
                };
                let query = CompiledQuery::compile(&expr, &mut self.labels).expect("compiles");
                let before = self.counts();
                let engine = self.host.engine_mut();
                let registered = match backfill {
                    true => engine.register_backfilled(name, query, *semantics, &mut self.events),
                    false => engine.register(name, query, *semantics),
                };
                let id = registered.unwrap_or_else(|e| panic!("{ctx}: {e}"));
                let group = engine
                    .group_of(id)
                    .and_then(|g| engine.group_subscribers(g));
                let attached = group.expect("a live group").len() > 1;
                if *backfill {
                    let after = self.counts();
                    let events = (before.0..after.0, before.1..after.1);
                    self.backfills.push(Backfill {
                        id,
                        events,
                        attached,
                    });
                }
                self.checkpoint();
            }
            Step::Deregister(name) => {
                let id = self.engine().query_id(name).expect("a live name");
                self.host.deregister(id).expect("a live query");
                self.checkpoint();
            }
            Step::SetWorkers(n) => {
                self.workers = *n;
                self.host.engine_mut().set_workers(*n);
            }
            Step::ExpireNow => {
                self.host.engine_mut().expire_now(&mut self.events);
                self.checkpoint();
            }
            Step::Crash => {
                if let (Some(strategy), Some(dir)) = (self.schedule.durable, &self.dir) {
                    let ids = self.engine().query_ids();
                    let lost = Host::from(MultiQueryEngine::new(self.scenario.config.window));
                    drop(std::mem::replace(&mut self.host, lost));
                    let (durable, report) =
                        Durable::recover(dir.path(), &mut self.labels, durability(strategy))
                            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    let resumed = report.resume_seq;
                    assert_eq!(resumed, pos as u64, "{ctx}: prefix not fully recovered");
                    self.host = Host::from(durable);
                    assert_eq!(self.engine().query_ids(), ids, "{ctx}: registrations");
                    self.host.engine_mut().set_workers(self.workers);
                }
            }
        }
        self.marks.push(self.counts());
    }

    /// `(emitted, invalidated)` events so far.
    fn counts(&self) -> (usize, usize) {
        (self.events.emitted.len(), self.events.invalidated.len())
    }

    fn checkpoint(&mut self) {
        if let Some(Err(e)) = self.host.checkpoint() {
            panic!("{:?}: checkpoint failed: {e}", self.schedule);
        }
    }

    /// The engine.
    pub fn engine(&self) -> &MultiQueryEngine {
        self.host.engine()
    }

    /// Emitted events, in order.
    pub fn emitted(&self) -> &[Event] {
        &self.events.emitted
    }

    /// Invalidated events, in order.
    pub fn invalidated(&self) -> &[Event] {
        &self.events.invalidated
    }

    /// The engine's comparable end state.
    pub fn end_state(&self) -> EndState {
        let engine = self.engine();
        let query = |id| {
            let (name, q) = (engine.name(id)?.to_string(), engine.engine(id)?);
            let s = q.stats();
            let fed = (s.tuples_processed, s.deletions_processed);
            let results = (s.results_emitted, s.results_invalidated);
            Some((name, id, q.emitted_pairs(), (fed, results)))
        };
        EndState {
            queries: engine.query_ids().into_iter().filter_map(query).collect(),
            groups: self.groups(),
            routing: engine.routing_stats(),
            edges: engine.graph().n_edges(),
        }
    }

    /// Every live evaluation group.
    pub fn groups(&self) -> Vec<Group> {
        let engine = self.engine();
        let group = |g| {
            let slots = engine.group_subscribers(g).unwrap_or_default().iter();
            let name = |s| engine.name(QueryId(s)).unwrap_or_default().to_string();
            let subscribers = slots.map(|&s| (s, name(s))).collect();
            (
                g,
                subscribers,
                engine.group_signature(g).map(|s| s.hash64()),
            )
        };
        engine.group_ids().into_iter().map(group).collect()
    }
}

/// A live evaluation group: its id, its subscribers' slots and names,
/// and its signature's hash.
pub type Group = (u32, Vec<(u32, String)>, Option<u64>);

type Counters = ((u64, u64), (u64, u64));

/// What two runs of one scenario must end with alike: per live query
/// its name, id, live result pairs (hence result count and liveness)
/// and the counters no traversal order or wall clock touches (tuples
/// and deletions processed, results emitted and invalidated); the
/// [`Run::groups`]; the router's `(seen, routed)`; and the window
/// graph's edge count.
#[derive(Debug, PartialEq, Eq)]
pub struct EndState {
    queries: Vec<(String, QueryId, Vec<ResultPair>, Counters)>,
    groups: Vec<Group>,
    routing: (u64, u64),
    edges: usize,
}

/// `view` of both runs' emitted, then invalidated, events is equal.
fn assert_events(got: &Run, want: &Run, view: impl Fn(&[Event]) -> Vec<Event>, ctx: &str) {
    let (g, w) = (view(got.emitted()), view(want.emitted()));
    assert_eq!(g, w, "{ctx}: emitted");
    let (g, w) = (view(got.invalidated()), view(want.invalidated()));
    assert_eq!(g, w, "{ctx}: invalidated");
}

/// The two runs' event streams are equal, event for event.
pub fn assert_identical(got: &Run, want: &Run, ctx: &str) {
    assert_events(got, want, <[Event]>::to_vec, ctx);
}

/// The two runs' event streams are equal once sorted by `(ts, query,
/// pair)`: the same events at the same stream timestamps, in any order
/// within a timestamp (which a rebuilt engine does not pin).
pub fn assert_sorted_identical(got: &Run, want: &Run, ctx: &str) {
    let sorted = |events: &[Event]| {
        let mut events = events.to_vec();
        events.sort_unstable_by_key(|&(id, p, ts)| (ts, id, p));
        events
    };
    assert_events(got, want, sorted, ctx);
}

/// The two runs end in the same [`EndState`].
pub fn assert_same_end(got: &Run, want: &Run, ctx: &str) {
    assert_eq!(got.end_state(), want.end_state(), "{ctx}: end state");
}

/// `private` — the scenario under private groups — against `shared`:
/// every subscriber `shared` did not attach to a live group by a
/// backfill sees the same events in the same order, and every attached
/// one the same backfill events (after it, an attached subscriber rides
/// its group's stream, which holds results a fresh replay would find on
/// another trajectory).
pub fn assert_private_matches(private: &Run, shared: &Run, ctx: &str) {
    let attached = shared.backfills.iter().filter(|b| b.attached);
    let attached: Vec<QueryId> = attached.map(|b| b.id).collect();
    let others = |events: &[Event]| {
        let others = events.iter().filter(|e| !attached.contains(&e.0));
        others.copied().collect()
    };
    assert_events(private, shared, others, ctx);
    let segments = |run: &Run| -> Vec<(Vec<Event>, Vec<Event>)> {
        let backfills = run.backfills.iter().filter(|b| attached.contains(&b.id));
        let segment = |b: &Backfill| {
            let (e, i) = b.events.clone();
            (run.emitted()[e].to_vec(), run.invalidated()[i].to_vec())
        };
        backfills.map(segment).collect()
    };
    let (got, want) = (segments(private), segments(shared));
    assert_eq!(got, want, "{ctx}: attached backfills");
}

/// The contract a `Logical` recovery keeps where exact equality fails
/// (the rebuilt Δ carries fresher timestamps than the crashed one), for
/// a scenario whose one query is `expr` under arbitrary semantics:
/// every result `want` reports at `t` is live in `got` at some point of
/// `[t, t + slide]`; every result `got` emits holds in some window up
/// to its timestamp (checked against the [`Oracle`]); and `got`
/// invalidates nothing `want` does not.
pub fn assert_logical_contract(got: &Run, want: &Run, expr: &str, ctx: &str) {
    let untagged = |events: &[Event]| {
        let mut events: Vec<_> = events.iter().map(|&(_, p, ts)| (p, ts)).collect();
        events.sort_unstable_by_key(|&(p, ts)| (ts, p));
        events
    };
    let (emitted, invalidated) = (untagged(got.emitted()), untagged(got.invalidated()));
    // Emitted at or before `at` and not invalidated since.
    let live_at = |pair, at| {
        let last = |events: &[(ResultPair, Timestamp)]| {
            let at_or_before = events.iter().filter(|&&(p, ts)| p == pair && ts <= at);
            at_or_before.map(|&(_, ts)| ts).max()
        };
        let emitted_last = last(&emitted);
        emitted_last.is_some() && emitted_last >= last(&invalidated)
    };
    let window = got.scenario.config.window;
    for (pair, ts) in untagged(want.emitted()) {
        let by = Timestamp(ts.0 + window.slide);
        let surfaces =
            live_at(pair, ts) || emitted.iter().any(|&(p, t)| p == pair && ts < t && t <= by);
        assert!(
            surfaces,
            "{ctx}: {pair}, reported at {ts:?}, is not live after recovery by {by:?}"
        );
    }
    let expected = untagged(want.invalidated());
    for event in &invalidated {
        assert!(
            expected.contains(event),
            "{ctx}: recovery invalidated {event:?}, the uninterrupted run did not"
        );
    }
    let query = CompiledQuery::compile(expr, &mut got.scenario.labels.clone()).expect("compiles");
    let tuples = &got.scenario.stream;
    let mut oracle = Oracle::new(window);
    let mut next = 0;
    for &(pair, ts) in &emitted {
        while next < tuples.len() && tuples[next].ts <= ts {
            oracle.step(tuples[next], query.dfa(), PathSemantics::Arbitrary);
            next += 1;
        }
        assert!(
            oracle.cumulative().contains(&pair),
            "{ctx}: recovery reported {pair} at {ts:?}, which no window up to then holds"
        );
    }
}
