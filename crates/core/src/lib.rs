//! Persistent Regular Path Query evaluation over streaming graphs.
//!
//! This crate implements the algorithms of *Regular Path Query Evaluation
//! on Streaming Graphs* (Pacaci, Bonifati, Özsu — SIGMOD 2020):
//!
//! * [`engine::Engine`] — the one Δ-engine shell: the registered query,
//!   the sliding-window policy (eager evaluation, lazy expiry), the
//!   window graph, the result stream, the clock and the statistics,
//!   under either [`engine::PathSemantics`]. The semantics only decide
//!   which three per-tree procedures it calls:
//! * `rapq` — **arbitrary path semantics** (§3): Algorithm RAPQ with
//!   `Insert` (extend one tree), `Delete`'s `-∞` marking (sever an
//!   edge) and `ExpiryRAPQ` (expire one tree) over the Δ spanning-tree
//!   index;
//! * [`rspq`] — **simple path semantics** (§4): Algorithm RSPQ with
//!   markings, conflict detection through suffix-language containment,
//!   `Extend` + `Unmark`, the same marking step per occurrence, and
//!   `ExpiryRSPQ`.
//!
//! # Quick start
//!
//! ```
//! use srpq_common::{LabelInterner, StreamTuple, Timestamp, VertexInterner};
//! use srpq_core::engine::{Engine, PathSemantics};
//! use srpq_core::sink::CollectSink;
//! use srpq_graph::WindowPolicy;
//!
//! let mut labels = LabelInterner::new();
//! let mut verts = VertexInterner::new();
//! let follows = labels.intern("follows");
//! let mentions = labels.intern("mentions");
//!
//! // Q1 of Figure 1: (follows ◦ mentions)+ over a 15-unit window.
//! let mut engine = Engine::from_str(
//!     "(follows mentions)+",
//!     &mut labels,
//!     WindowPolicy::new(15, 1),
//!     PathSemantics::Arbitrary,
//! )
//! .unwrap();
//!
//! let (x, y, u) = (verts.intern("x"), verts.intern("y"), verts.intern("u"));
//! let mut sink = CollectSink::default();
//! engine.process(StreamTuple::insert(Timestamp(1), x, y, follows), &mut sink);
//! engine.process(StreamTuple::insert(Timestamp(2), y, u, mentions), &mut sink);
//! assert_eq!(sink.pairs().len(), 1); // (x, u)
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod bitset;
pub mod config;
pub mod delta;
pub mod engine;
pub mod multi;
mod parallel_multi;
mod rapq;
pub mod reorder;
mod results;
pub mod rspq;
pub mod sink;
pub mod stats;

pub use config::EngineConfig;
pub use engine::{Engine, PathSemantics};
pub use multi::{
    MultiCollectSink, MultiQueryEngine, MultiSink, NullMultiSink, QueryError, QueryId, UntagSink,
};
pub use reorder::ReorderBuffer;
pub use sink::{CollectSink, CountSink, NullSink, ResultSink};
pub use stats::{DeltaProfile, EngineStats, IndexSize, StageTotals};
