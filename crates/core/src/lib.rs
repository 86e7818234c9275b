//! Persistent Regular Path Query evaluation over streaming graphs.
//!
//! This crate implements the algorithms of *Regular Path Query Evaluation
//! on Streaming Graphs* (Pacaci, Bonifati, Özsu — SIGMOD 2020):
//!
//! * [`multi::MultiQueryEngine`] — the one coordinator: it owns the sliding
//!   window's graph (eager evaluation, lazy expiry), routes each tuple
//!   by label, applies it to the graph once, purges the graph at slide
//!   crossings, and fans results out per registered query — on the
//!   calling thread or over a worker pool. Results leave through the
//!   one sink trait, [`multi::MultiSink`], tagged with the query's
//!   [`multi::QueryId`]; a lone query is a one-query engine whose sink
//!   ignores the tag ([`sink::CollectSink`], [`sink::CountSink`]).
//! * [`engine::Engine`] — the one Δ-engine shell, one per evaluation
//!   group: the registered query, its result set, clock and statistics,
//!   under either [`engine::PathSemantics`]. It only reads the graph.
//!   The semantics only decide which three per-tree procedures it calls:
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
//! use srpq_automata::CompiledQuery;
//! use srpq_common::{LabelInterner, StreamTuple, Timestamp, VertexInterner};
//! use srpq_core::multi::MultiQueryEngine;
//! use srpq_core::sink::CollectSink;
//! use srpq_core::PathSemantics;
//! use srpq_graph::WindowPolicy;
//!
//! let mut labels = LabelInterner::new();
//! let mut verts = VertexInterner::new();
//! let follows = labels.intern("follows");
//! let mentions = labels.intern("mentions");
//!
//! // Q1 of Figure 1: (follows ◦ mentions)+ over a 15-unit window.
//! let q1 = CompiledQuery::compile("(follows mentions)+", &mut labels).unwrap();
//! let mut engine = MultiQueryEngine::new(WindowPolicy::new(15, 1));
//! let id = engine.register("q1", q1, PathSemantics::Arbitrary).unwrap();
//!
//! let (x, y, u) = (verts.intern("x"), verts.intern("y"), verts.intern("u"));
//! let mut sink = CollectSink::default();
//! let batch = [
//!     StreamTuple::insert(Timestamp(1), x, y, follows),
//!     StreamTuple::insert(Timestamp(2), y, u, mentions),
//! ];
//! engine.process_batch(&batch, &mut sink);
//! assert_eq!(sink.pairs().len(), 1); // (x, u)
//! assert_eq!(engine.engine(id).unwrap().result_count(), 1);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod bitset;
pub mod config;
pub mod delta;
pub mod engine;
pub mod multi;
mod rapq;
mod results;
pub mod rspq;
mod schedule;
pub mod sink;
pub mod stats;

pub use config::EngineConfig;
pub use engine::{Engine, PathSemantics};
pub use multi::{
    MultiCollectSink, MultiQueryEngine, MultiSink, NullMultiSink, QueryError, QueryId,
};
pub use sink::{CollectSink, CountSink};
pub use stats::{DeltaProfile, EngineStats, IndexSize, StageTotals};
