//! Shared primitives for the `streaming-rpq` workspace.
//!
//! This crate hosts the vocabulary types every other crate speaks:
//!
//! * [`ids`] — compact newtype identifiers for vertices, labels, and
//!   automaton states.
//! * [`interner`] — string interners mapping external names to those ids.
//! * [`hash`] — a fast, deterministic hasher (FxHash) plus map/set aliases,
//!   used on every hot path instead of SipHash.
//! * [`mod@tuple`] — the streaming graph tuple (*sgt*, Definition 2 of the
//!   paper) and result-pair types.
//! * [`histogram`] — a log-bucketed latency histogram used by the
//!   experiment harnesses to report p50/p99.
//! * [`wire`] — the one byte-format layer: a bounds-checked reader/writer
//!   pair, the `Wire` put/get trait every record's layout is stated
//!   through once, and the reference grammar of all six formats (frames,
//!   messages, WAL, checkpoints, label tables, stream files).
//! * [`mod@crc32`] — the shared CRC32 checksum guarding every on-disk artifact
//!   (WAL records, checkpoints, stream files).
//! * [`frame`] — length-prefixed, CRC32-guarded message frames, the unit
//!   of the `srpq_server` network protocol.
//! * [`beacon`] — relaxed-atomic stage beacons published by engine and
//!   worker threads, sampled by the std-only profiler in `srpq_obs`.
//! * [`pool`] — the one bounded free-list rule for containers emptied
//!   and refilled by window churn.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod beacon;
pub mod crc32;
pub mod frame;
pub mod hash;
pub mod histogram;
pub mod ids;
pub mod interner;
pub mod pool;
pub mod tuple;
pub mod wire;

pub use beacon::StageBeacon;
pub use crc32::{crc32, Crc32};
pub use hash::{table_bytes, FxBuildHasher, FxHashMap, FxHashSet};
pub use histogram::LatencyHistogram;
pub use ids::{Label, StateId, Timestamp, VertexId};
pub use interner::{Interner, LabelInterner, VertexInterner};
pub use pool::{Pool, POOL_MAX_ENTRIES, POOL_MAX_ENTRY_BYTES};
pub use tuple::{Edge, Op, ResultPair, StreamTuple};
