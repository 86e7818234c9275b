//! The network serving layer: persistent RPQs as a long-running
//! process.
//!
//! The paper's setting is *persistent* queries over unbounded streams,
//! yet a batch CLI can only replay finite files. This crate turns the
//! engine stack into a service: a multi-threaded TCP server that owns a
//! (optionally durable) [`srpq_core::MultiQueryEngine`] and speaks a
//! length-prefixed binary protocol built from
//! [`srpq_common::frame`] frames over the 21-byte
//! [`srpq_common::wire`] tuple codec — an ingest payload is
//! bit-identical to a WAL record payload.
//!
//! # Session types
//!
//! A connection is a plain request/reply session until it subscribes:
//!
//! * **ingest** — [`protocol::Msg::MapLabels`] once, then
//!   [`protocol::Msg::Ingest`] batches. Each batch is acked at the
//!   WAL-durable sequence number: when the server runs with a WAL, the
//!   ack means the batch is logged (and fsynced per the server's
//!   [`srpq_persist::SyncPolicy`]) *and* evaluated.
//! * **control** — register ([`protocol::Msg::AddQuery`], optionally
//!   backfilled from the live window), deregister, list, checkpoint,
//!   drain, shutdown, stats.
//! * **subscriber** — [`protocol::Msg::Subscribe`] flips the session
//!   into a push stream of [`protocol::Msg::Results`] frames, filtered
//!   by query name (empty filter = everything, including queries
//!   registered later).
//!
//! # Pipeline, ordering, and backpressure
//!
//! Frame decoding runs in per-connection session threads; evaluation is
//! serialized through one bounded command channel into the engine
//! thread. Arrival order on that channel *is* the stream order — the
//! server's output is reproducible by an offline engine performing the
//! same operations in the same order, which the equivalence tests pin.
//! Backpressure composes from three bounds: the command channel (ingest
//! sessions block when evaluation falls behind), per-subscriber result
//! queues ([`protocol::SubPolicy::Block`] stalls the engine,
//! [`protocol::SubPolicy::DropNewest`] sheds load and reports the drop
//! tally), and TCP itself.
//!
//! Timestamps must be non-decreasing across the *merged* ingest
//! sessions for windowing to mean anything; the engines tolerate
//! out-of-order tuples (the clock never regresses), but slides fire on
//! the merged order the server observed.
//!
//! # Durability
//!
//! The engine thread holds an [`srpq_persist::Host`], the one host
//! `srpq run` holds too. With a WAL directory it wraps the engine in
//! [`srpq_persist::Durable`]: batches are logged before evaluation,
//! registrations are made durable by an immediate checkpoint, and the
//! label table is persisted next to the WAL ([`labels`]). Restarting
//! over the same directory recovers checkpoint + WAL suffix + label
//! table and continues at the acked sequence number — a late
//! [`protocol::Msg::HelloAck`] tells resuming ingest clients where to
//! pick up. Slide, compaction, checkpoint and recovery events reach
//! the journal through the host (`Host::observe` and `Durable`'s
//! hooks), in the same detail `run --trace` prints.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod core;
pub mod labels;
pub mod protocol;
mod server;
mod subscriber;

pub use server::{accept_session, start, ServerConfig, ServerHandle};
