//! The durability hook around the one engine every host runs.
//!
//! [`Durable`] wraps a [`MultiQueryEngine`] — `serve`'s registry, or the
//! one-query engine behind `srpq run` — with write-ahead logging and
//! periodic checkpointing: `process_batch` appends the batch to the WAL (and
//! fsyncs per the [`SyncPolicy`]) **before** the engine mutates any
//! state, then checkpoints whenever the window has slid
//! `checkpoint_every` times since the last checkpoint, then truncates
//! WAL segments that both predate the checkpoint and lie entirely
//! outside the window.
//!
//! [`Durable::recover`] restores a crashed instance from its directory:
//! load the newest valid checkpoint, rebuild the engine from it
//! ([`CheckpointStrategy::Logical`] replays the checkpointed window
//! content through the engine; [`CheckpointStrategy::Full`] restores
//! the window graph's posting-list and expiry-queue order and the exact
//! Δ-forest arenas), then replay the WAL suffix after the
//! checkpoint with a discarding sink. Under `Full` the restored engine
//! continues the stream exactly as an uninterrupted run; under
//! `Logical`, within the contract below (`tests/recovery_equivalence.rs`
//! pins both with a crash-injection matrix).
//!
//! There is **one checkpoint layout**, and it is logical: it stores no
//! worker count and nothing about the evaluation schedule, so a
//! directory written at any `--workers` recovers at any other, and a
//! directory `srpq run` wrote is the one-query case of what `serve`
//! writes.
//!
//! # Recovery guarantees
//!
//! * **Inputs**: a batch acknowledged under `SyncPolicy::Batch` (or
//!   stricter) is never lost.
//! * **Outputs**: recovery replays the post-checkpoint suffix with a
//!   discarding sink — results already delivered before the crash are
//!   not re-emitted (*at-most-once* delivery for the torn batch; log
//!   the sink downstream if it must be exactly-once).
//! * **State**: under `Full` checkpoints the restored engine state is
//!   bit-faithful, so the continued stream is identical to an
//!   uninterrupted run's. Under `Logical` checkpoints (the compact
//!   default) the Δ forest is rebuilt from the live window. RAPQ's
//!   timestamp refresh re-points a re-reached node without re-expanding
//!   its subtree (Algorithm RAPQ line 7), so the lost instance may have
//!   carried *stale* (lower-bound) timestamps that depend on history,
//!   not only on window content. The rebuild heals them to canonical
//!   values — the same healing an expiry pass performs — so a result
//!   the uninterrupted run reports at `t` is live after recovery at some
//!   point of `[t, t + slide]`. On rare streams the rebuilt engine also
//!   reports a pair the crashed one would have missed, or keeps live a
//!   pair a deletion would have invalidated and re-derived. It
//!   invalidates nothing the uninterrupted run would not, and every pair
//!   it reports is a result of some window up to its report.
//! * **Determinism**: a checkpoint holds no wall-clock field and nothing
//!   about the schedule, so the same stream writes the same checkpoint
//!   bytes at any worker count.

use crate::checkpoint::{self, CheckpointStrategy, ConfigWire, StatsWire};
use crate::codec::{corrupt, PersistError, Result};
use crate::wal::{SyncPolicy, Wal, WalBatch, WalInfo};
use srpq_automata::CompiledQuery;
use srpq_common::wire::{Reader, Wire, WireError, Writer};
use srpq_common::{wire_fields, wire_tags, LabelInterner, ResultPair, StreamTuple, Timestamp};
use srpq_core::engine::PathSemantics;
use srpq_core::multi::{MultiQueryEngine, MultiSink, NullMultiSink};
use srpq_core::{EngineStats, QueryId};
use srpq_graph::WindowPolicy;
use srpq_obs::{Counter, EventKind, Gauge, Histogram, Obs};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Durability tunables for one [`Durable`] instance.
#[derive(Debug, Clone, Copy)]
pub struct DurabilityConfig {
    /// When the WAL fsyncs (see [`SyncPolicy`]).
    pub sync: SyncPolicy,
    /// What checkpoints store (see [`CheckpointStrategy`]).
    pub strategy: CheckpointStrategy,
    /// Checkpoint every N window slides; `0` disables automatic
    /// checkpoints (the initial manifest checkpoint is still written).
    pub checkpoint_every: u64,
    /// Rotate WAL segments at roughly this size.
    pub segment_bytes: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            sync: SyncPolicy::Batch,
            strategy: CheckpointStrategy::Logical,
            checkpoint_every: 8,
            segment_bytes: 4 << 20,
        }
    }
}

/// What [`Durable::recover`] did.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryReport {
    /// Sequence number of the checkpoint that anchored recovery.
    pub checkpoint_seq: u64,
    /// Strategy of that checkpoint.
    pub strategy: CheckpointStrategy,
    /// WAL tuples replayed on top of the checkpoint.
    pub replayed_tuples: u64,
    /// First stream position the caller should feed next (all tuples
    /// `0..resume_seq` are already reflected in the engine).
    pub resume_seq: u64,
    /// Wall-clock milliseconds recovery took.
    pub elapsed_ms: u64,
}

/// Durability counters: lifetime totals of one durable directory. The
/// four totals are checkpointed at the head of [`Durable`]'s payload, so
/// a recovered instance continues from what its anchoring checkpoint
/// recorded (WAL traffic after that checkpoint is replayed, not
/// re-logged, and is not re-counted).
#[derive(Debug, Clone, Copy, Default)]
pub struct DurabilityCounters {
    /// Bytes appended to the WAL over the directory's lifetime.
    pub wal_bytes: u64,
    /// Records appended to the WAL.
    pub wal_appends: u64,
    /// `fsync`s issued.
    pub fsyncs: u64,
    /// Checkpoints written.
    pub checkpoints_written: u64,
    /// Milliseconds the most recent recovery took (describes this
    /// process, not the directory: never checkpointed).
    pub last_recovery_ms: u64,
}

/// Cached observability handles (see [`Durable::set_obs`]). Metric
/// handles are registered once at attach time so the per-batch path
/// does no registry lookups.
#[derive(Debug)]
struct ObsHooks {
    obs: Obs,
    wal_append_ns: Histogram,
    checkpoint_ns: Histogram,
    wal_bytes: Counter,
    wal_appends: Counter,
    fsyncs: Counter,
    checkpoints: Counter,
    recovery_ms: Gauge,
}

/// A durable engine: WAL + checkpoints wrapped around a
/// [`MultiQueryEngine`]. The type parameter is inert — it exists, with
/// its one possible value as the default, only so callers that spell
/// `Durable<MultiQueryEngine>` keep compiling.
#[derive(Debug)]
pub struct Durable<E = MultiQueryEngine> {
    inner: E,
    wal: Wal,
    dir: PathBuf,
    cfg: DurabilityConfig,
    counters: DurabilityCounters,
    last_ckpt_seq: u64,
    /// Window end at the last checkpoint (`None` until the clock starts).
    last_ckpt_window_end: Option<Timestamp>,
    /// What [`Self::recover`] reported, kept so a later
    /// [`Self::set_obs`] can publish the recovery retroactively.
    last_recovery: Option<RecoveryReport>,
    obs: Option<ObsHooks>,
}

impl Durable<MultiQueryEngine> {
    /// Wraps a fresh engine, initializing `dir` with an empty WAL and a
    /// manifest checkpoint at sequence 0. Refuses a directory that
    /// already holds durable state (use [`Self::recover`] for those).
    pub fn create(inner: MultiQueryEngine, dir: &Path, cfg: DurabilityConfig) -> Result<Durable> {
        std::fs::create_dir_all(dir)?;
        // A corrupt existing checkpoint must surface as an error, not
        // read as "fresh directory" — proceeding would prune the very
        // file whose corruption the user needs to hear about.
        if checkpoint::load_latest(dir)?.is_some() {
            return Err(PersistError::Incompatible(format!(
                "{} already holds durable state; recover it or choose a fresh directory",
                dir.display()
            )));
        }
        let (wal, existing) = Wal::open(dir, cfg.segment_bytes)?;
        if !existing.is_empty() {
            return Err(PersistError::Incompatible(format!(
                "{} holds WAL records but no checkpoint; refusing to overwrite",
                dir.display()
            )));
        }
        let mut me = Durable {
            inner,
            wal,
            dir: dir.to_path_buf(),
            cfg,
            counters: DurabilityCounters::default(),
            last_ckpt_seq: 0,
            last_ckpt_window_end: None,
            last_recovery: None,
            obs: None,
        };
        me.checkpoint()?;
        Ok(me)
    }

    /// Restores a durable engine from `dir`: newest valid checkpoint +
    /// WAL suffix replay. See the module docs for the guarantees.
    pub fn recover(
        dir: &Path,
        labels: &mut LabelInterner,
        cfg: DurabilityConfig,
    ) -> Result<(Durable, RecoveryReport)> {
        let t0 = Instant::now();
        let (header, payload) = checkpoint::load_latest(dir)?.ok_or_else(|| {
            PersistError::Incompatible(format!("{}: no checkpoint to recover from", dir.display()))
        })?;
        let mut r = Reader::new(&payload);
        // Lifetime counters continue from what the checkpoint recorded.
        let (wal_bytes, wal_appends, fsyncs, checkpoints_written) = r.get()?;
        let mut counters = DurabilityCounters {
            wal_bytes,
            wal_appends,
            fsyncs,
            checkpoints_written,
            last_recovery_ms: 0,
        };
        let mut inner = decode_engine(&mut r, header.strategy, labels)?;
        r.finish()
            .map_err(|e| corrupt(format!("checkpoint payload has {e}")))?;

        let (wal, batches) = Wal::open(dir, cfg.segment_bytes)?;
        let mut applied = header.seq;
        let mut replayed = 0u64;
        for WalBatch { seq, tuples } in &batches {
            let end = seq + tuples.len() as u64;
            if end <= applied {
                continue;
            }
            if *seq > applied {
                return Err(corrupt(format!(
                    "WAL gap: checkpoint covers {applied}, next record starts at {seq}"
                )));
            }
            let skip = (applied - seq) as usize;
            // State advances; outputs are not re-delivered.
            inner.process_batch(&tuples[skip..], &mut NullMultiSink);
            replayed += (tuples.len() - skip) as u64;
            applied = end;
        }

        let elapsed_ms = t0.elapsed().as_millis() as u64;
        counters.last_recovery_ms = elapsed_ms;
        let we = window_end_opt(inner.window(), inner.now());
        let report = RecoveryReport {
            checkpoint_seq: header.seq,
            strategy: header.strategy,
            replayed_tuples: replayed,
            resume_seq: applied,
            elapsed_ms,
        };
        let me = Durable {
            inner,
            wal,
            dir: dir.to_path_buf(),
            cfg,
            counters,
            last_ckpt_seq: header.seq,
            last_ckpt_window_end: we,
            last_recovery: Some(report),
            obs: None,
        };
        Ok((me, report))
    }

    /// Attaches an observability bundle: WAL-append and checkpoint
    /// latency histograms, WAL/checkpoint counters, the last-recovery
    /// gauge, and checkpoint/recovery journal events. Counters start
    /// from this engine's lifetime totals (a recovered instance reports
    /// its pre-crash history), and a recovery performed before the
    /// attach is published retroactively.
    pub fn set_obs(&mut self, obs: Obs) {
        let r = obs.registry();
        let hooks = ObsHooks {
            wal_append_ns: r.histogram("srpq_stage_wal_append_ns", &[]),
            checkpoint_ns: r.histogram("srpq_checkpoint_ns", &[]),
            wal_bytes: r.counter("srpq_wal_bytes_total", &[]),
            wal_appends: r.counter("srpq_wal_appends_total", &[]),
            fsyncs: r.counter("srpq_wal_fsyncs_total", &[]),
            checkpoints: r.counter("srpq_checkpoints_total", &[]),
            recovery_ms: r.gauge("srpq_recovery_last_ms", &[]),
            obs,
        };
        hooks.wal_bytes.add(self.counters.wal_bytes);
        hooks.wal_appends.add(self.counters.wal_appends);
        hooks.fsyncs.add(self.counters.fsyncs);
        hooks.checkpoints.add(self.counters.checkpoints_written);
        hooks.recovery_ms.set(self.counters.last_recovery_ms);
        if let Some(rep) = self.last_recovery {
            hooks.obs.journal().record(
                EventKind::Recovery,
                format!(
                    "dir={} checkpoint_seq={} replayed={} resume_seq={} elapsed_ms={}",
                    self.dir.display(),
                    rep.checkpoint_seq,
                    rep.replayed_tuples,
                    rep.resume_seq,
                    rep.elapsed_ms
                ),
            );
        }
        self.obs = Some(hooks);
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &MultiQueryEngine {
        &self.inner
    }

    /// Mutable access to the wrapped engine. Mutating engine *state*
    /// through this bypasses the WAL; use it for sinks/statistics only.
    pub fn inner_mut(&mut self) -> &mut MultiQueryEngine {
        &mut self.inner
    }

    /// Unwraps the engine, dropping durability.
    pub fn into_inner(self) -> MultiQueryEngine {
        self.inner
    }

    /// The durability directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Aggregate WAL statistics.
    pub fn wal_info(&self) -> WalInfo {
        self.wal.info()
    }

    /// Durability counters for this engine's lifetime.
    pub fn counters(&self) -> DurabilityCounters {
        self.counters
    }

    /// Sequence number of the most recent checkpoint.
    pub fn last_checkpoint_seq(&self) -> u64 {
        self.last_ckpt_seq
    }

    /// WAL-append then process: the durable ingestion entry point
    /// (evaluation runs on whichever schedule the engine is set to).
    pub fn process_batch<S: MultiSink>(
        &mut self,
        batch: &[StreamTuple],
        sink: &mut S,
    ) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        self.log_batch(batch)?;
        self.inner.process_batch(batch, sink);
        self.after_batch()
    }

    /// Appends `batch` to the WAL under the configured [`SyncPolicy`].
    /// Must run before the engine sees the batch.
    fn log_batch(&mut self, batch: &[StreamTuple]) -> Result<()> {
        let before = self.counters;
        let t0 = Instant::now();
        self.log_batch_inner(batch)?;
        if let Some(hooks) = &self.obs {
            hooks.wal_append_ns.record(t0.elapsed().as_nanos() as u64);
            hooks
                .wal_bytes
                .add(self.counters.wal_bytes - before.wal_bytes);
            hooks
                .wal_appends
                .add(self.counters.wal_appends - before.wal_appends);
            hooks.fsyncs.add(self.counters.fsyncs - before.fsyncs);
        }
        Ok(())
    }

    fn log_batch_inner(&mut self, batch: &[StreamTuple]) -> Result<()> {
        match self.cfg.sync {
            SyncPolicy::Always => {
                for t in batch {
                    self.counters.wal_bytes += self.wal.append(std::slice::from_ref(t))?;
                    self.counters.wal_appends += 1;
                    if self.wal.sync()? {
                        self.counters.fsyncs += 1;
                    }
                }
            }
            SyncPolicy::Batch => {
                self.counters.wal_bytes += self.wal.append(batch)?;
                self.counters.wal_appends += 1;
                if self.wal.sync()? {
                    self.counters.fsyncs += 1;
                }
            }
            SyncPolicy::None => {
                self.counters.wal_bytes += self.wal.append(batch)?;
                self.counters.wal_appends += 1;
            }
        }
        Ok(())
    }

    /// Post-batch bookkeeping: checkpoint if the window slid far enough.
    fn after_batch(&mut self) -> Result<()> {
        let window = self.inner.window();
        let clock = self.inner.now();
        if clock != Timestamp::NEG_INFINITY {
            let we = window.window_end(clock);
            match self.last_ckpt_window_end {
                None => self.last_ckpt_window_end = Some(we),
                Some(prev) if self.cfg.checkpoint_every > 0 => {
                    let due = prev.saturating_add(
                        window
                            .slide
                            .saturating_mul(self.cfg.checkpoint_every as i64),
                    );
                    if we >= due {
                        self.checkpoint()?;
                    }
                }
                Some(_) => {}
            }
        }
        Ok(())
    }

    /// Writes a checkpoint now, then truncates WAL segments that both
    /// predate it and lie entirely outside the window. Returns the
    /// covered sequence number.
    pub fn checkpoint(&mut self) -> Result<u64> {
        let fsyncs_before = self.counters.fsyncs;
        let t0 = Instant::now();
        // The checkpoint claims coverage of everything logged so far, so
        // the log must be durable first.
        if self.wal.sync()? {
            self.counters.fsyncs += 1;
        }
        let seq = self.wal.next_seq();
        let mut w = checkpoint::begin(self.cfg.strategy, seq);
        let header_bytes = w.len();
        // The lifetime totals lead the payload, counting the checkpoint
        // being written: a recovered instance resumes exactly where
        // this one stood once the write below succeeded.
        let c = self.counters;
        (
            c.wal_bytes,
            c.wal_appends,
            c.fsyncs,
            c.checkpoints_written + 1,
        )
            .put(&mut w);
        encode_engine(&self.inner, self.cfg.strategy, &mut w);
        let payload_bytes = w.len() - header_bytes;
        checkpoint::publish(&self.dir, seq, w)?;
        self.counters.checkpoints_written += 1;
        self.last_ckpt_seq = seq;
        let window = self.inner.window();
        let clock = self.inner.now();
        self.last_ckpt_window_end = window_end_opt(window, clock);
        if clock != Timestamp::NEG_INFINITY {
            self.wal.truncate_older(seq, window.watermark(clock))?;
        }
        if let Some(hooks) = &self.obs {
            let elapsed = t0.elapsed();
            hooks.checkpoint_ns.record(elapsed.as_nanos() as u64);
            hooks.checkpoints.inc();
            hooks.fsyncs.add(self.counters.fsyncs - fsyncs_before);
            hooks.obs.journal().record(
                EventKind::Checkpoint,
                format!(
                    "seq={seq} strategy={:?} bytes={payload_bytes} elapsed_us={}",
                    self.cfg.strategy,
                    elapsed.as_micros()
                ),
            );
        }
        Ok(seq)
    }
}

fn window_end_opt(window: WindowPolicy, clock: Timestamp) -> Option<Timestamp> {
    if clock == Timestamp::NEG_INFINITY {
        None
    } else {
        Some(window.window_end(clock))
    }
}

// ---------------------------------------------------------------------
// The engine-state section of the payload
// ---------------------------------------------------------------------

wire_tags!(Semantics for PathSemantics as "path semantics" { Arbitrary = 0, Simple = 1 });

/// The registration-slot table, vacated slots included: query ids are
/// slot indexes and subscribers hold them across restarts, so a
/// deregistered slot is checkpointed as an explicit `None` rather than
/// compacted away. A slot stores only its name and its group id —
/// evaluation state lives in the group table.
type SlotTable = Vec<Option<(String, u32)>>;

/// One evaluation group's shared state — checkpointed once per group,
/// not once per subscriber. Under [`CheckpointStrategy::Full`] the
/// group's Δ forest follows.
struct GroupState {
    semantics: PathSemantics,
    regex: String,
    complete: bool,
    now: Timestamp,
    emitted: Vec<ResultPair>,
    stats: EngineStats,
}

wire_fields!(GroupWire for GroupState {
    semantics as Semantics,
    regex,
    complete,
    now,
    emitted,
    stats as StatsWire,
});

fn compile(regex: &str, labels: &mut LabelInterner) -> Result<CompiledQuery> {
    CompiledQuery::compile(regex, labels)
        .map_err(|e| PersistError::Incompatible(format!("stored query {regex:?}: {e}")))
}

/// Turns a checkpointed edge list back into insert tuples (already in
/// timestamp order).
fn edges_to_tuples(edges: &checkpoint::EdgeList) -> Vec<StreamTuple> {
    edges
        .iter()
        .map(|&(u, v, l, ts)| StreamTuple::insert(ts, u, v, l))
        .collect()
}

/// Serializes the engine's logical state under `strategy`. Nothing
/// here depends on the evaluation schedule: a durable directory written
/// at any worker count recovers at any other (switch `--workers` freely
/// across restarts).
fn encode_engine(multi: &MultiQueryEngine, strategy: CheckpointStrategy, w: &mut Writer) {
    ConfigWire::put(multi.config(), w);
    let (seen, routed) = multi.routing_stats();
    (multi.now(), seen, routed).put(w);
    match strategy {
        CheckpointStrategy::Logical => checkpoint::encode_graph(w, multi.graph()),
        CheckpointStrategy::Full => multi.graph().layout().put(w),
    }
    let slots: SlotTable = (0..multi.n_slots() as u32)
        .map(|qi| {
            let id = QueryId(qi);
            let group = multi.group_of(id)?;
            Some((multi.name(id).unwrap_or("").to_string(), group))
        })
        .collect();
    slots.put(w);
    // Evaluation groups, freed ones included (group ids in the slot
    // entries above are positional); recovery re-attaches subscribers
    // from the encoded membership, never by signature re-matching.
    (multi.n_group_slots() as u32).put(w);
    for g in 0..multi.n_group_slots() as u32 {
        let Some(engine) = multi.group_engine(g) else {
            0u8.put(w); // freed group
            continue;
        };
        1u8.put(w);
        let state = GroupState {
            semantics: engine.semantics(),
            regex: engine.query().regex().to_string(),
            complete: multi.group_is_complete(g).unwrap_or(false),
            now: engine.now(),
            emitted: engine.emitted_pairs(),
            stats: *engine.stats(),
        };
        GroupWire::put(&state, w);
        if strategy == CheckpointStrategy::Full {
            checkpoint::encode_forest(w, &engine.delta_snapshot());
        }
    }
}

/// Rebuilds an engine from [`encode_engine`]'s bytes. `labels` must be
/// the same interner (or an equal clone) the original run compiled its
/// queries against — checkpoints store query *text*, and label ids are
/// interner-relative.
fn decode_engine(
    r: &mut Reader<'_>,
    strategy: CheckpointStrategy,
    labels: &mut LabelInterner,
) -> Result<MultiQueryEngine> {
    let config = ConfigWire::get(r)?;
    let (now, seen, routed): (Timestamp, u64, u64) = r.get()?;
    let mut multi = MultiQueryEngine::with_config(config);
    // `Full` places the graph exactly now; `Logical` replays its edges
    // through the groups once they exist.
    let edges = match strategy {
        CheckpointStrategy::Logical => checkpoint::decode_graph(r)?,
        CheckpointStrategy::Full => {
            let layout: checkpoint::Layout = r.get()?;
            multi
                .graph_mut()
                .restore_layout(&layout)
                .map_err(|e| corrupt(format!("graph layout: {e}")))?;
            Vec::new()
        }
    };
    let slots: SlotTable = r.get()?;

    // The group table (evaluation state) is restored first, then
    // subscribers attach in slot order so ids keep their meaning.
    // The checkpoint deliberately stores no worker count —
    // parallelism is runtime configuration, not logical state — so
    // the rebuilt engine starts without workers and hosts
    // call `set_workers` once after recovery.
    let mut slot = 0u32;
    let cursors = r.seq(1, |r| -> Result<Option<(u32, GroupState)>> {
        let expect = slot;
        slot += 1;
        match r.get::<u8>()? {
            0 => {
                // Tombstone of a freed group: burn the id so the slot
                // entries above keep their meaning.
                multi.push_vacant_group();
                return Ok(None);
            }
            1 => {}
            other => {
                let what = "group tag";
                let value = other.into();
                return Err(WireError::Tag { what, value }.into());
            }
        }
        let state = GroupWire::get(r)?;
        let query = compile(&state.regex, labels)?;
        let g = multi.restore_push_group(query, state.semantics, state.complete);
        if g != expect {
            return Err(corrupt(format!(
                "checkpoint group {expect} restored as group id {g}"
            )));
        }
        if strategy == CheckpointStrategy::Full {
            let engine = multi.group_engine_mut(g).expect("just restored");
            engine
                .restore_delta(checkpoint::decode_forest(r)?)
                .map_err(|e| corrupt(format!("forest snapshot: {e}")))?;
        }
        Ok(Some((g, state)))
    })?;
    for (slot, meta) in slots.into_iter().enumerate() {
        match meta {
            None => multi.push_vacant_slot(),
            Some((name, group)) => {
                if multi.group_engine(group).is_none() {
                    return Err(corrupt(format!(
                        "checkpoint slot {slot} rides missing group {group}"
                    )));
                }
                let id = multi.restore_subscriber(name, group);
                if id.0 as usize != slot {
                    return Err(corrupt(format!(
                        "checkpoint slot {slot} restored as query id {id}"
                    )));
                }
            }
        }
    }
    if strategy == CheckpointStrategy::Logical {
        multi.process_batch(&edges_to_tuples(&edges), &mut NullMultiSink);
    }
    for (g, state) in cursors.into_iter().flatten() {
        let engine = multi.group_engine_mut(g).expect("restored above");
        engine.restore_cursor(state.now, state.emitted, state.stats);
    }
    multi.restore_cursor(now, seen, routed);
    Ok(multi)
}
