//! Subscriber registry, bounded result queues, and the fan-out sink.
//!
//! Every subscriber session owns one bounded queue of [`Push`] items.
//! The engine thread fans results out by query id: a [`FanoutSink`]
//! buffers entries per subscriber during a batch, then flushes them as
//! [`Push::Results`] frames. When a queue is full the subscriber's
//! [`SubPolicy`] decides:
//!
//! * [`SubPolicy::Block`] — the engine thread blocks until the
//!   subscriber drains. Lossless; the stall backpressures the whole
//!   ingest pipeline (acks are withheld), which in turn backpressures
//!   every ingest client through its bounded command channel and,
//!   transitively, TCP.
//! * [`SubPolicy::DropNewest`] — the frame's entries are counted and
//!   discarded; the tally is delivered as a [`Msg::Dropped`] message as
//!   soon as the queue has room again. Ingest never waits on a slow
//!   subscriber. The pending count lives in an [`AtomicU64`] shared
//!   with the session thread, which sweeps it once its queue closes and
//!   writes one final tally ahead of `ShuttingDown` — so losses reach
//!   the client even when the queue was wedged full to the very end.
//!
//! Flush fences ([`Push::Flush`]) are delivered with a *blocking* send
//! under both policies — they carry the determinism guarantee of
//! `Drain`, so they are never dropped.

use crate::protocol::{Msg, ResultEntry, SubPolicy};
use srpq_common::{FxHashSet, ResultPair, Timestamp};
use srpq_core::multi::{MultiSink, QueryId};
use srpq_obs::Counter;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::Instant;

/// Result entries per [`Push::Results`] frame before an eager flush.
pub(crate) const RESULTS_PER_FRAME: usize = 256;

/// Default queue bound (frames) when the subscriber passes 0.
pub(crate) const DEFAULT_CAPACITY: usize = 64;

/// Marks attached to every ingest batch at decode time, riding every
/// result frame the batch produces: the end-to-end latency timestamp
/// and, when the causal-trace sampler picked the batch, the tracer's
/// identifiers.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BatchStamp {
    /// Ingest-decode completion time: the pump thread records `now -
    /// t0` into the e2e histogram after the covering socket write.
    pub(crate) t0: Instant,
    /// The causal tracer picked this batch: `(trace_id,
    /// root_span_id)`; every stage the batch flows through records a
    /// child span under the root.
    pub(crate) trace: Option<(u64, u64)>,
}

/// One item in a subscriber queue.
pub(crate) enum Push {
    /// A batch of results to forward. `stamp` carries the marks of the
    /// ingest batch that produced these entries — the pump thread
    /// observes it after the socket write.
    Results {
        entries: Vec<ResultEntry>,
        stamp: Option<BatchStamp>,
    },
    /// A drop tally to forward ([`Msg::Dropped`]).
    Dropped(u64),
    /// Flush the socket, then acknowledge — the `Drain` fence.
    Flush(SyncSender<()>),
}

/// Engine-side state of one attached subscriber.
pub(crate) struct Subscriber {
    /// Follow every query, including ones registered later.
    pub(crate) all: bool,
    /// The names this subscriber declared (a query registered — or
    /// re-registered — later under one of them is followed too).
    pub(crate) names: Vec<String>,
    /// Slot ids followed when not `all`.
    pub(crate) queries: FxHashSet<u32>,
    /// The bounded queue into the subscriber session thread.
    pub(crate) tx: SyncSender<Push>,
    pub(crate) policy: SubPolicy,
    /// Entries dropped since the last delivered tally. Shared with the
    /// session thread, which sweeps any remainder into a final
    /// [`Msg::Dropped`] when the queue closes; at any instant the count
    /// lives either here or in an enqueued tally, never both.
    pub(crate) dropped_pending: Arc<AtomicU64>,
    /// Per-batch staging buffer (flushed at `RESULTS_PER_FRAME` and at
    /// batch end).
    pub(crate) buf: Vec<ResultEntry>,
    /// The session is gone (queue disconnected); reaped after the batch.
    pub(crate) dead: bool,
}

impl Subscriber {
    pub(crate) fn new(
        names: Vec<String>,
        queries: FxHashSet<u32>,
        tx: SyncSender<Push>,
        policy: SubPolicy,
        dropped_pending: Arc<AtomicU64>,
    ) -> Subscriber {
        Subscriber {
            all: names.is_empty(),
            names,
            queries,
            tx,
            policy,
            dropped_pending,
            buf: Vec::new(),
            dead: false,
        }
    }

    fn matches(&self, query: u32) -> bool {
        self.all || self.queries.contains(&query)
    }

    /// Hands the staged buffer to the session thread under the
    /// subscriber's policy, crediting delivered entries to
    /// `pushed_total` and shed ones to `dropped_total` (an entry is
    /// never both).
    pub(crate) fn flush_buf(
        &mut self,
        pushed_total: &Counter,
        dropped_total: &Counter,
        stamp: Option<BatchStamp>,
    ) {
        if self.dead {
            self.buf.clear();
            return;
        }
        if !self.buf.is_empty() {
            let frame = std::mem::take(&mut self.buf);
            let n = frame.len() as u64;
            match self.policy {
                SubPolicy::Block => {
                    if self
                        .tx
                        .send(Push::Results {
                            entries: frame,
                            stamp,
                        })
                        .is_err()
                    {
                        self.dead = true;
                    } else {
                        pushed_total.add(n);
                    }
                }
                SubPolicy::DropNewest => match self.tx.try_send(Push::Results {
                    entries: frame,
                    stamp,
                }) {
                    Ok(()) => pushed_total.add(n),
                    Err(TrySendError::Full(_)) => {
                        self.dropped_pending.fetch_add(n, Ordering::Relaxed);
                        dropped_total.add(n);
                    }
                    Err(TrySendError::Disconnected(_)) => self.dead = true,
                },
            }
        }
        // Deliver an outstanding drop tally opportunistically; if the
        // queue is still full, put the count back and keep accumulating
        // (the session thread sweeps any remainder when the queue
        // closes, so a wedged queue delays the tally but never eats it).
        if !self.dead {
            let pending = self.dropped_pending.swap(0, Ordering::Relaxed);
            if pending > 0 {
                match self.tx.try_send(Push::Dropped(pending)) {
                    Ok(()) => {}
                    Err(TrySendError::Full(_)) => {
                        self.dropped_pending.fetch_add(pending, Ordering::Relaxed);
                    }
                    Err(TrySendError::Disconnected(_)) => self.dead = true,
                }
            }
        }
    }

    /// Sends the drain fence and returns the ack receiver. Fences are
    /// never *dropped* — a full queue is retried — but a subscriber
    /// wedged longer than `timeout` (its client stopped reading and the
    /// kernel buffers are full) is skipped with `None` rather than
    /// deadlocking the control plane against the stalled socket.
    pub(crate) fn send_fence(
        &mut self,
        timeout: std::time::Duration,
    ) -> Option<mpsc::Receiver<()>> {
        if self.dead {
            return None;
        }
        let (ack_tx, ack_rx) = mpsc::sync_channel(1);
        let mut fence = Push::Flush(ack_tx);
        let deadline = std::time::Instant::now() + timeout;
        loop {
            match self.tx.try_send(fence) {
                Ok(()) => return Some(ack_rx),
                Err(TrySendError::Disconnected(_)) => {
                    self.dead = true;
                    return None;
                }
                Err(TrySendError::Full(f)) => {
                    if std::time::Instant::now() >= deadline {
                        return None;
                    }
                    fence = f;
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
        }
    }
}

/// A [`MultiSink`] fanning tagged results out to the matching
/// subscribers' staging buffers.
pub(crate) struct FanoutSink<'a> {
    pub(crate) subscribers: &'a mut Vec<Subscriber>,
    /// Running count of entries handed to session threads.
    pub(crate) pushed: &'a Counter,
    /// Running count of entries lost to drop-policy queues.
    pub(crate) dropped: &'a Counter,
    /// Marks of the driving batch (e2e latency, causal trace),
    /// attached to every frame this sink flushes.
    pub(crate) stamp: Option<BatchStamp>,
}

impl FanoutSink<'_> {
    fn push(&mut self, entry: ResultEntry) {
        for sub in self.subscribers.iter_mut() {
            if sub.dead || !sub.matches(entry.query) {
                continue;
            }
            sub.buf.push(entry);
            if sub.buf.len() >= RESULTS_PER_FRAME {
                sub.flush_buf(self.pushed, self.dropped, self.stamp);
            }
        }
    }

    /// Flushes every staging buffer (end of batch) and reaps dead
    /// subscribers.
    pub(crate) fn finish(self) {
        for sub in self.subscribers.iter_mut() {
            sub.flush_buf(self.pushed, self.dropped, self.stamp);
        }
        self.subscribers.retain(|s| !s.dead);
    }
}

impl MultiSink for FanoutSink<'_> {
    fn emit(&mut self, id: QueryId, pair: ResultPair, ts: Timestamp) {
        self.push(ResultEntry {
            query: id.0,
            invalidated: false,
            src: pair.src.0,
            dst: pair.dst.0,
            ts: ts.0,
        });
    }

    fn invalidate(&mut self, id: QueryId, pair: ResultPair, ts: Timestamp) {
        self.push(ResultEntry {
            query: id.0,
            invalidated: true,
            src: pair.src.0,
            dst: pair.dst.0,
            ts: ts.0,
        });
    }
}

/// Renders one queue item as its wire message, moving a results
/// frame's entries out of the item.
pub(crate) fn push_to_msg(push: Push) -> Option<Msg> {
    match push {
        Push::Results { entries, .. } => Some(Msg::Results { entries }),
        Push::Dropped(count) => Some(Msg::Dropped { count }),
        Push::Flush(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srpq_common::VertexId;

    fn entry(q: u32, n: i64) -> ResultEntry {
        ResultEntry {
            query: q,
            invalidated: false,
            src: n as u32,
            dst: n as u32 + 1,
            ts: n,
        }
    }

    #[test]
    fn block_policy_is_lossless() {
        let (tx, rx) = mpsc::sync_channel(2);
        let mut subs = vec![Subscriber::new(
            Vec::new(),
            FxHashSet::default(),
            tx,
            SubPolicy::Block,
            Arc::new(AtomicU64::new(0)),
        )];
        let (pushed, dropped) = (Counter::default(), Counter::default());
        // Fill well past the queue bound; a consumer thread drains.
        let consumer = std::thread::spawn(move || {
            let mut got = 0usize;
            while let Ok(p) = rx.recv() {
                if let Push::Results { entries: v, .. } = p {
                    got += v.len();
                }
            }
            got
        });
        for round in 0..10 {
            let mut sink = FanoutSink {
                subscribers: &mut subs,
                pushed: &pushed,
                dropped: &dropped,
                stamp: None,
            };
            for i in 0..(RESULTS_PER_FRAME + 1) {
                sink.emit(
                    QueryId(0),
                    ResultPair::new(VertexId(i as u32), VertexId(round)),
                    Timestamp(i as i64),
                );
            }
            sink.finish();
        }
        drop(subs);
        let got = consumer.join().unwrap();
        assert_eq!(got as u64, pushed.get());
        assert_eq!(dropped.get(), 0);
    }

    #[test]
    fn drop_policy_counts_and_reports() {
        let (tx, rx) = mpsc::sync_channel(1);
        let pending = Arc::new(AtomicU64::new(0));
        let mut subs = vec![Subscriber::new(
            Vec::new(),
            FxHashSet::default(),
            tx,
            SubPolicy::DropNewest,
            Arc::clone(&pending),
        )];
        let (pushed, dropped) = (Counter::default(), Counter::default());
        // Nobody drains: the first frame occupies the queue, later
        // frames drop and are tallied.
        for round in 0..3 {
            let mut sink = FanoutSink {
                subscribers: &mut subs,
                pushed: &pushed,
                dropped: &dropped,
                stamp: None,
            };
            sink.push(entry(0, round));
            sink.finish();
        }
        assert_eq!(dropped.get(), 2);
        assert_eq!(pending.load(Ordering::Relaxed), 2);
        // Drain the queue: the next flush (even an empty one — no new
        // results required) delivers the tally.
        let Push::Results { entries: first, .. } = rx.recv().unwrap() else {
            panic!("expected results first");
        };
        assert_eq!(first.len(), 1);
        let sink = FanoutSink {
            subscribers: &mut subs,
            pushed: &pushed,
            dropped: &dropped,
            stamp: None,
        };
        sink.finish();
        let Push::Dropped(n) = rx.recv().unwrap() else {
            panic!("expected the drop tally");
        };
        assert_eq!(n, 2);
        assert_eq!(pending.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn wedged_queue_leaves_tally_for_session_sweep() {
        // A capacity-1 queue that nobody ever drains: every flush finds
        // it full, so the tally can never ride the queue. The shared
        // counter must still hold the full count for the session
        // thread's shutdown sweep — delivered or tallied, never lost.
        let (tx, rx) = mpsc::sync_channel(1);
        let pending = Arc::new(AtomicU64::new(0));
        let mut subs = vec![Subscriber::new(
            Vec::new(),
            FxHashSet::default(),
            tx,
            SubPolicy::DropNewest,
            Arc::clone(&pending),
        )];
        let (pushed, dropped) = (Counter::default(), Counter::default());
        for round in 0..5 {
            let mut sink = FanoutSink {
                subscribers: &mut subs,
                pushed: &pushed,
                dropped: &dropped,
                stamp: None,
            };
            sink.push(entry(0, round));
            sink.finish();
        }
        assert_eq!(pushed.get(), 1);
        assert_eq!(dropped.get(), 4);
        assert_eq!(pending.load(Ordering::Relaxed), 4);
        // Engine shutdown drops the subscriber; the buffered frame
        // survives inside the channel, and the sweep (modelled here)
        // recovers the exact tally afterwards.
        drop(subs);
        let mut delivered = 0usize;
        while let Ok(p) = rx.recv() {
            if let Push::Results { entries, .. } = p {
                delivered += entries.len();
            }
        }
        let swept = pending.swap(0, Ordering::Relaxed);
        assert_eq!(delivered, 1);
        assert_eq!(swept, 4);
    }

    #[test]
    fn filters_and_reaps_disconnected() {
        let (tx, rx) = mpsc::sync_channel(4);
        let (tx2, rx2) = mpsc::sync_channel(4);
        let mut q0 = FxHashSet::default();
        q0.insert(0);
        let mut subs = vec![
            Subscriber::new(
                vec!["only-q0".into()],
                q0,
                tx,
                SubPolicy::Block,
                Arc::new(AtomicU64::new(0)),
            ),
            Subscriber::new(
                Vec::new(),
                FxHashSet::default(),
                tx2,
                SubPolicy::Block,
                Arc::new(AtomicU64::new(0)),
            ),
        ];
        let (pushed, dropped) = (Counter::default(), Counter::default());
        let mut sink = FanoutSink {
            subscribers: &mut subs,
            pushed: &pushed,
            dropped: &dropped,
            stamp: None,
        };
        sink.push(entry(0, 1));
        sink.push(entry(1, 2));
        sink.finish();
        // Filtered subscriber only sees query 0; `all` sees both.
        let Push::Results { entries: a, .. } = rx.recv().unwrap() else {
            panic!()
        };
        assert_eq!(a.iter().map(|e| e.query).collect::<Vec<_>>(), vec![0]);
        let Push::Results { entries: b, .. } = rx2.recv().unwrap() else {
            panic!()
        };
        assert_eq!(b.iter().map(|e| e.query).collect::<Vec<_>>(), vec![0, 1]);
        // Disconnect the first subscriber: it is reaped on next flush.
        drop(rx);
        let mut sink = FanoutSink {
            subscribers: &mut subs,
            pushed: &pushed,
            dropped: &dropped,
            stamp: None,
        };
        sink.push(entry(0, 3));
        sink.finish();
        assert_eq!(subs.len(), 1);
        assert!(subs[0].all);
        drop(rx2);
    }
}
