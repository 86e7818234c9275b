//! The one host every driver runs.
//!
//! `serve`'s engine thread and `srpq run`/`recover` all hold a
//! [`Host`]: the one [`MultiQueryEngine`], in memory or wrapped in
//! [`Durable`]. The host dispatches between the two once — ingestion
//! logs first when durable, checkpoints and WAL counters exist only
//! there — and owns the one counter→journal diff: [`Host::observe`]
//! journals a slide boundary when the window slid and a compaction per
//! live query whose Δ forest compacted. Its watermarks are seeded from
//! the engine when the host is built, so a recovered host reports
//! deltas, not lifetime totals. Checkpoint and recovery events come
//! only from [`Durable::set_obs`]'s hooks, so every driver writes the
//! same detail.

use crate::codec::Result;
use crate::durable::{DurabilityCounters, Durable};
use srpq_common::StreamTuple;
use srpq_core::multi::{MultiQueryEngine, MultiSink, QueryError, QueryId};
use srpq_obs::{Journal, Obs, StageTracker};
use std::fmt::Display;

/// The evaluation state a driver hosts, plus the watermarks behind
/// [`Self::observe`]. Build one with `Host::from` an engine (in memory)
/// or a [`Durable`] (fresh or recovered).
pub struct Host {
    store: Store,
    tracker: StageTracker,
}

enum Store {
    Memory(Box<MultiQueryEngine>),
    Durable(Box<Durable>),
}

impl Store {
    fn engine(&self) -> &MultiQueryEngine {
        match self {
            Store::Memory(e) => e,
            Store::Durable(d) => d.inner(),
        }
    }
}

impl From<MultiQueryEngine> for Host {
    fn from(engine: MultiQueryEngine) -> Host {
        Host::new(Store::Memory(Box::new(engine)))
    }
}

impl From<Durable> for Host {
    fn from(durable: Durable) -> Host {
        Host::new(Store::Durable(Box::new(durable)))
    }
}

impl Host {
    fn new(store: Store) -> Host {
        let mut tracker = StageTracker::new();
        let engine = store.engine();
        tracker.seed(expiry_runs(engine));
        for (name, compactions) in compactions(engine) {
            tracker.seed_query(name, compactions);
        }
        Host { store, tracker }
    }

    /// The engine.
    pub fn engine(&self) -> &MultiQueryEngine {
        self.store.engine()
    }

    /// The engine, for registry calls and `set_workers`. Ingestion goes
    /// through [`Self::process_batch`] so a durable host logs first, and
    /// deregistration through [`Self::deregister`].
    pub fn engine_mut(&mut self) -> &mut MultiQueryEngine {
        match &mut self.store {
            Store::Memory(e) => e,
            Store::Durable(d) => d.inner_mut(),
        }
    }

    /// The durability wrapper (its `dir`, `wal_info` and
    /// `last_checkpoint_seq`); `None` in memory.
    pub fn durable(&self) -> Option<&Durable> {
        match &self.store {
            Store::Memory(_) => None,
            Store::Durable(d) => Some(d),
        }
    }

    /// Attaches `obs` to a durable host's WAL and checkpoint hooks (see
    /// [`Durable::set_obs`]); in memory there is nothing to hook.
    pub fn set_obs(&mut self, obs: Obs) {
        if let Store::Durable(d) = &mut self.store {
            d.set_obs(obs);
        }
    }

    /// Evaluates `batch`, appending it to the WAL first when durable. On
    /// a WAL error the engine has seen nothing.
    pub fn process_batch<S: MultiSink>(
        &mut self,
        batch: &[StreamTuple],
        sink: &mut S,
    ) -> Result<()> {
        match &mut self.store {
            Store::Memory(e) => {
                e.process_batch(batch, sink);
                Ok(())
            }
            Store::Durable(d) => d.process_batch(batch, sink),
        }
    }

    /// Checkpoints now, returning the covered sequence number; `None`
    /// in memory.
    pub fn checkpoint(&mut self) -> Option<Result<u64>> {
        match &mut self.store {
            Store::Memory(_) => None,
            Store::Durable(d) => Some(d.checkpoint()),
        }
    }

    /// WAL and checkpoint totals; all zero in memory.
    pub fn counters(&self) -> DurabilityCounters {
        self.durable().map(Durable::counters).unwrap_or_default()
    }

    /// Deregisters `id` and forgets its compaction watermark, so a later
    /// registration under the same name reports from zero.
    pub fn deregister(&mut self, id: QueryId) -> std::result::Result<(), QueryError> {
        let name = self.engine().name(id).map(str::to_string);
        self.engine_mut().deregister(id)?;
        if let Some(name) = name {
            self.tracker.reset_query(&name);
        }
        Ok(())
    }

    /// Journals what the engine's counters did since the last call: a
    /// slide boundary when any group ran an expiry pass, and a
    /// compaction per live query whose Δ forest compacted. `at` is the
    /// caller's stream cursor (`seq=N`, `pos=N`), prefixed to the slide
    /// detail and formatted only then: a call that journals nothing
    /// allocates nothing.
    pub fn observe(&mut self, journal: &Journal, at: impl Display) {
        let engine = self.store.engine();
        self.tracker.slide(journal, at, expiry_runs(engine));
        for (name, compactions) in compactions(engine) {
            self.tracker.compaction(journal, name, compactions);
        }
    }
}

/// Expiry passes summed over evaluation *groups*: per-query stats alias
/// the owning group's, so a per-id sum would count a shared forest once
/// per subscriber.
fn expiry_runs(engine: &MultiQueryEngine) -> u64 {
    engine.group_engines().map(|e| e.stats().expiry_runs).sum()
}

/// Each live query's name and lifetime compaction count.
fn compactions(engine: &MultiQueryEngine) -> impl Iterator<Item = (&str, u64)> {
    engine
        .queries()
        .filter_map(|(id, name)| Some((name, engine.stats(id)?.compactions)))
}
