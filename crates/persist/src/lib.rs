//! Durability for the streaming RPQ engines: write-ahead logging,
//! checkpoints, and crash recovery.
//!
//! The engines in `srpq_core` are purely in-memory — a restart loses
//! the window graph and the Δ spanning forest, and the only rebuild
//! path is replaying the stream from its origin. This crate bounds
//! recovery by **window size instead of stream length**, exploiting the
//! paper's persistent-query setting: the engines' state is a function
//! of the live window, and the live window is a bounded suffix of the
//! input log.
//!
//! Four pieces compose (every on-disk layout is in the format reference
//! of [`srpq_common::wire`], sections 3 and 4):
//!
//! * [`wal`] — a segmented, CRC32-checksummed write-ahead log of stream
//!   tuples in the 21-byte `srpq_common::wire` encoding, with an
//!   [`wal::SyncPolicy`] knob, segment rotation, and truncation of
//!   segments that predate both the latest checkpoint and the window;
//! * [`checkpoint`] — periodic snapshots under two strategies:
//!   [`CheckpointStrategy::Logical`] (live window + engine cursor;
//!   recovery rebuilds Δ by replay; the compact default) and
//!   [`CheckpointStrategy::Full`] (exact Δ-forest arenas and result
//!   sets for near-instant, timestamp-exact restart);
//! * [`durable`] — [`Durable`], the hook around
//!   [`srpq_core::MultiQueryEngine`]: WAL-append *before* mutation,
//!   checkpoint every N slides, and [`Durable::recover`] restoring a
//!   crashed instance that continues the stream as an uninterrupted run
//!   (exactly under `Full`; see [`durable`]'s recovery guarantees);
//! * [`host`] — [`Host`], what every driver holds: the engine in memory
//!   or behind [`Durable`], chosen once, plus the one counter→journal
//!   diff ([`Host::observe`]) behind slide and compaction events.
//!
//! There is one engine to persist and therefore **one checkpoint
//! layout**: every host — `serve`'s registry, `srpq run`'s single query
//! — is a `MultiQueryEngine`, and the layout is its logical state
//! (window content, registration slots, evaluation groups), independent
//! of how many worker threads execute or replay it. A directory written
//! at any `--workers` recovers at any other. Root-sharding one group's
//! forest across workers (the paper's §5.1.1) is not in the tree; if a
//! workload needs it, it returns as the pool's work unit, not as a
//! second engine with a second layout.
//!
//! ```no_run
//! use srpq_automata::CompiledQuery;
//! use srpq_common::LabelInterner;
//! use srpq_core::{CollectSink, MultiQueryEngine, PathSemantics};
//! use srpq_graph::WindowPolicy;
//! use srpq_persist::{Durable, DurabilityConfig};
//! use std::path::Path;
//!
//! let mut labels = LabelInterner::new();
//! let query = CompiledQuery::compile("(follows mentions)+", &mut labels).unwrap();
//! let mut engine = MultiQueryEngine::new(WindowPolicy::new(15, 1));
//! engine.register("q", query, PathSemantics::Arbitrary).unwrap();
//! let mut durable =
//!     Durable::create(engine, Path::new("state/"), DurabilityConfig::default()).unwrap();
//! let mut sink = CollectSink::default();
//! // WAL-append, then evaluate (one query: `CollectSink` ignores the tag).
//! // durable.process_batch(&tuples, &mut sink)?;
//! // ... crash ...
//! let (durable, report) =
//!     Durable::recover(Path::new("state/"), &mut labels, DurabilityConfig::default()).unwrap();
//! assert!(report.resume_seq >= report.checkpoint_seq);
//! # let _ = (durable, sink);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod checkpoint;
pub mod codec;
pub mod durable;
pub mod host;
pub mod wal;

pub use checkpoint::CheckpointStrategy;
pub use codec::PersistError;
pub use durable::{DurabilityConfig, DurabilityCounters, Durable, RecoveryReport};
pub use host::Host;
pub use wal::{SyncPolicy, Wal, WalBatch, WalInfo};
