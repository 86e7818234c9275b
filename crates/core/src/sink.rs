//! Untagged result sinks: one query's plain result stream.
//!
//! Under the implicit window model the result of a streaming RPQ is an
//! append-only stream of vertex pairs (Definition 9); when explicit
//! deletions are enabled, previously reported pairs whose every witness
//! path died can additionally be *invalidated* (§3.2, explicit window
//! semantics). Every engine delivers that stream through the one sink
//! trait, [`MultiSink`], tagged with the registration's [`QueryId`].
//! The sinks here are for hosts that drive a lone query: they implement
//! [`MultiSink`] and ignore the tag.

use crate::multi::{MultiSink, QueryId};
use srpq_common::{FxHashSet, ResultPair, Timestamp};

/// Counts emissions and invalidations.
#[derive(Debug, Default, Clone)]
pub struct CountSink {
    /// Number of emitted results.
    pub emitted: u64,
    /// Number of invalidated results.
    pub invalidated: u64,
}

impl MultiSink for CountSink {
    #[inline]
    fn emit(&mut self, _id: QueryId, _pair: ResultPair, _ts: Timestamp) {
        self.emitted += 1;
    }

    #[inline]
    fn invalidate(&mut self, _id: QueryId, _pair: ResultPair, _ts: Timestamp) {
        self.invalidated += 1;
    }
}

/// Collects the full result stream (tests and examples).
#[derive(Debug, Default, Clone)]
pub struct CollectSink {
    emitted: Vec<(ResultPair, Timestamp)>,
    invalidated: Vec<(ResultPair, Timestamp)>,
}

impl CollectSink {
    /// All emitted pairs in emission order (with timestamps).
    pub fn emitted(&self) -> &[(ResultPair, Timestamp)] {
        &self.emitted
    }

    /// All invalidated pairs in order (with timestamps).
    pub fn invalidated(&self) -> &[(ResultPair, Timestamp)] {
        &self.invalidated
    }

    /// The distinct emitted pairs, unordered.
    pub fn pairs(&self) -> FxHashSet<ResultPair> {
        self.emitted.iter().map(|&(p, _)| p).collect()
    }

    /// The set of pairs that are currently valid: emitted and not
    /// invalidated afterwards.
    pub fn live_pairs(&self) -> FxHashSet<ResultPair> {
        let mut live = FxHashSet::default();
        // Replay the merged emission/invalidations in timestamp order;
        // within a timestamp emissions win (a pair re-derived at the
        // moment of invalidation stays).
        let mut events: Vec<(Timestamp, bool, ResultPair)> = self
            .emitted
            .iter()
            .map(|&(p, t)| (t, true, p))
            .chain(self.invalidated.iter().map(|&(p, t)| (t, false, p)))
            .collect();
        events.sort_by_key(|&(t, is_emit, _)| (t, is_emit));
        for (_, is_emit, p) in events {
            if is_emit {
                live.insert(p);
            } else {
                live.remove(&p);
            }
        }
        live
    }

    /// Clears the collected streams.
    pub fn clear(&mut self) {
        self.emitted.clear();
        self.invalidated.clear();
    }
}

impl MultiSink for CollectSink {
    fn emit(&mut self, _id: QueryId, pair: ResultPair, ts: Timestamp) {
        self.emitted.push((pair, ts));
    }

    fn invalidate(&mut self, _id: QueryId, pair: ResultPair, ts: Timestamp) {
        self.invalidated.push((pair, ts));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::NullMultiSink;
    use srpq_common::VertexId;

    const Q: QueryId = QueryId(0);

    fn p(a: u32, b: u32) -> ResultPair {
        ResultPair::new(VertexId(a), VertexId(b))
    }

    #[test]
    fn count_sink_counts() {
        let mut s = CountSink::default();
        s.emit(Q, p(0, 1), Timestamp(1));
        s.emit(Q, p(0, 2), Timestamp(2));
        s.invalidate(Q, p(0, 1), Timestamp(3));
        assert_eq!(s.emitted, 2);
        assert_eq!(s.invalidated, 1);
    }

    #[test]
    fn collect_sink_orders_and_dedups() {
        let mut s = CollectSink::default();
        s.emit(Q, p(0, 1), Timestamp(1));
        s.emit(Q, p(0, 1), Timestamp(2));
        s.emit(Q, p(0, 2), Timestamp(2));
        assert_eq!(s.emitted().len(), 3);
        assert_eq!(s.pairs().len(), 2);
    }

    #[test]
    fn live_pairs_replays_invalidation() {
        let mut s = CollectSink::default();
        s.emit(Q, p(0, 1), Timestamp(1));
        s.invalidate(Q, p(0, 1), Timestamp(5));
        assert!(s.live_pairs().is_empty());
        // Re-derived after invalidation → live again.
        s.emit(Q, p(0, 1), Timestamp(7));
        assert_eq!(s.live_pairs().len(), 1);
    }

    #[test]
    fn null_sink_ignores() {
        let mut s = NullMultiSink;
        s.emit(Q, p(0, 1), Timestamp(1));
        s.invalidate(Q, p(0, 1), Timestamp(1));
    }
}
