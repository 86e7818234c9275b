//! Out-of-order tuple handling (left as future work in §2 of the paper;
//! Definition 3 assumes source-timestamp-ordered arrival).
//!
//! [`ReorderBuffer`] fronts an engine with the standard bounded-lateness
//! discipline of stream processors: tuples are buffered and released in
//! timestamp order once the low-watermark `max_seen_ts − max_lateness`
//! passes them. Tuples arriving later than `max_lateness` behind the
//! newest seen timestamp cannot be reordered safely; they are counted
//! and dropped (the usual "too-late" policy), keeping the engine's
//! in-order contract intact.

use srpq_common::{StreamTuple, Timestamp};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Heap entry ordered by timestamp then arrival sequence (stable for
/// equal timestamps).
#[derive(PartialEq, Eq)]
struct Pending {
    ts: Timestamp,
    seq: u64,
    tuple: StreamTuple,
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.ts, self.seq).cmp(&(other.ts, other.seq))
    }
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A bounded-lateness reorder buffer.
pub struct ReorderBuffer {
    max_lateness: i64,
    heap: BinaryHeap<Reverse<Pending>>,
    max_seen: Timestamp,
    last_released: Timestamp,
    seq: u64,
    dropped_late: u64,
}

impl ReorderBuffer {
    /// Creates a buffer tolerating tuples up to `max_lateness` time
    /// units behind the newest seen timestamp.
    pub fn new(max_lateness: i64) -> ReorderBuffer {
        assert!(max_lateness >= 0);
        ReorderBuffer {
            max_lateness,
            heap: BinaryHeap::new(),
            max_seen: Timestamp::NEG_INFINITY,
            last_released: Timestamp::NEG_INFINITY,
            seq: 0,
            dropped_late: 0,
        }
    }

    /// Number of buffered tuples.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Tuples dropped for arriving beyond the lateness bound.
    pub fn dropped_late(&self) -> u64 {
        self.dropped_late
    }

    /// Offers a possibly out-of-order tuple; invokes `deliver` (in
    /// timestamp order) for every tuple the advancing watermark
    /// releases. Returns `false` if the tuple itself was too late and
    /// dropped.
    pub fn push(&mut self, tuple: StreamTuple, mut deliver: impl FnMut(StreamTuple)) -> bool {
        // Too late: would have to be delivered before something already
        // released.
        if tuple.ts < self.last_released
            || (self.max_seen != Timestamp::NEG_INFINITY
                && tuple.ts < self.max_seen.saturating_sub(self.max_lateness))
        {
            self.dropped_late += 1;
            return false;
        }
        if tuple.ts > self.max_seen {
            self.max_seen = tuple.ts;
        }
        self.heap.push(Reverse(Pending {
            ts: tuple.ts,
            seq: self.seq,
            tuple,
        }));
        self.seq += 1;

        let watermark = self.max_seen.saturating_sub(self.max_lateness);
        while let Some(Reverse(top)) = self.heap.peek() {
            if top.ts > watermark {
                break;
            }
            let Reverse(p) = self.heap.pop().expect("peeked");
            self.last_released = p.ts;
            deliver(p.tuple);
        }
        true
    }

    /// Releases everything still buffered (stream end), in order.
    pub fn flush(&mut self, mut deliver: impl FnMut(StreamTuple)) {
        while let Some(Reverse(p)) = self.heap.pop() {
            self.last_released = p.ts;
            deliver(p.tuple);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srpq_common::{Label, VertexId};

    fn t(ts: i64) -> StreamTuple {
        StreamTuple::insert(Timestamp(ts), VertexId(0), VertexId(1), Label(0))
    }

    fn collect_push(buf: &mut ReorderBuffer, ts: i64, out: &mut Vec<i64>) -> bool {
        buf.push(t(ts), |tp| out.push(tp.ts.0))
    }

    #[test]
    fn reorders_within_lateness() {
        let mut buf = ReorderBuffer::new(5);
        let mut out = Vec::new();
        for ts in [3, 1, 2, 9, 7, 8, 15] {
            collect_push(&mut buf, ts, &mut out);
        }
        buf.flush(|tp| out.push(tp.ts.0));
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(out, sorted, "released out of order: {out:?}");
        assert_eq!(out.len(), 7);
        assert_eq!(buf.dropped_late(), 0);
    }

    #[test]
    fn drops_too_late() {
        let mut buf = ReorderBuffer::new(2);
        let mut out = Vec::new();
        assert!(collect_push(&mut buf, 10, &mut out));
        // 10 - 2 = 8 watermark: ts 5 is too late.
        assert!(!collect_push(&mut buf, 5, &mut out));
        assert_eq!(buf.dropped_late(), 1);
        // ts 9 is within lateness.
        assert!(collect_push(&mut buf, 9, &mut out));
    }

    #[test]
    fn zero_lateness_is_pass_through() {
        let mut buf = ReorderBuffer::new(0);
        let mut out = Vec::new();
        for ts in [1, 2, 3] {
            collect_push(&mut buf, ts, &mut out);
        }
        assert_eq!(out, vec![1, 2, 3]);
        assert!(buf.is_empty());
    }

    #[test]
    fn never_releases_below_last_released() {
        let mut buf = ReorderBuffer::new(3);
        let mut out = Vec::new();
        for ts in [5, 1, 9, 2, 6, 20] {
            collect_push(&mut buf, ts, &mut out);
        }
        buf.flush(|tp| out.push(tp.ts.0));
        for w in out.windows(2) {
            assert!(w[0] <= w[1], "inversion in {out:?}");
        }
    }

    #[test]
    fn stable_for_equal_timestamps() {
        let mut buf = ReorderBuffer::new(2);
        let mut out: Vec<(i64, u32)> = Vec::new();
        let mk = |ts: i64, v: u32| {
            StreamTuple::insert(Timestamp(ts), VertexId(v), VertexId(v + 1), Label(0))
        };
        for (ts, v) in [(1, 0), (1, 1), (1, 2), (10, 3)] {
            buf.push(mk(ts, v), |tp| out.push((tp.ts.0, tp.edge.src.0)));
        }
        buf.flush(|tp| out.push((tp.ts.0, tp.edge.src.0)));
        assert_eq!(out, vec![(1, 0), (1, 1), (1, 2), (10, 3)]);
    }

    #[test]
    fn feeds_engine_in_order() {
        use crate::engine::PathSemantics;
        use crate::multi::solo::Solo;
        use crate::sink::CollectSink;
        use crate::EngineConfig;
        use srpq_automata::CompiledQuery;
        use srpq_common::LabelInterner;
        use srpq_graph::WindowPolicy;

        let mut labels = LabelInterner::new();
        let a = labels.intern("a");
        let b = labels.intern("b");
        let query = CompiledQuery::compile("a b", &mut labels).unwrap();
        let config = EngineConfig::with_window(WindowPolicy::new(100, 10));
        let mut engine = Solo::new(query, config, PathSemantics::Arbitrary);
        let mut sink = CollectSink::default();
        let mut buf = ReorderBuffer::new(5);
        // Arrive out of order: (b @3) before (a @1).
        let (x, y, z) = (VertexId(0), VertexId(1), VertexId(2));
        for tuple in [
            StreamTuple::insert(Timestamp(3), y, z, b),
            StreamTuple::insert(Timestamp(1), x, y, a),
            StreamTuple::insert(Timestamp(50), x, x, a),
        ] {
            buf.push(tuple, |tp| engine.process(tp, &mut sink));
        }
        buf.flush(|tp| engine.process(tp, &mut sink));
        assert!(engine.has_result(srpq_common::ResultPair::new(x, z)));
    }
}
