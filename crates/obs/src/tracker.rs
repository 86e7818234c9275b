//! Shared stats→journal derivation: turns monotone engine counters
//! into journal events.
//!
//! `srpq_persist::Host::observe` — the one diff behind both the
//! server's engine thread (per ingest batch) and the offline `run`
//! driver (per stream chunk) — detects slide boundaries and compactions
//! through this type. Only plain integers cross the API, so the core
//! engines stay free of any metrics dependency. Checkpoint events are
//! not derived here: `Durable`'s own hooks journal them.

use crate::journal::{EventKind, Journal};
use srpq_common::FxHashMap;
use std::fmt::Display;

/// Monotone-counter watermarks with journal emission on advance.
#[derive(Debug, Default)]
pub struct StageTracker {
    last_expiry_runs: u64,
    last_compactions: FxHashMap<String, u64>,
}

impl StageTracker {
    /// A tracker with all watermarks at zero (fresh engine).
    pub fn new() -> Self {
        Self::default()
    }

    /// Seeds the expiry watermark (recovered hosts come up with non-zero
    /// lifetime counters; the first diff should report deltas, not
    /// totals).
    pub fn seed(&mut self, expiry_runs: u64) {
        self.last_expiry_runs = expiry_runs;
    }

    /// Seeds one query's compaction watermark.
    pub fn seed_query(&mut self, query: &str, compactions: u64) {
        self.last_compactions.insert(query.to_string(), compactions);
    }

    /// Forgets a query's watermark (a re-registration under the same
    /// name starts fresh).
    pub fn reset_query(&mut self, query: &str) {
        self.last_compactions.remove(query);
    }

    /// Journals a [`EventKind::SlideBoundary`] if `expiry_runs`
    /// advanced past the watermark. `at` is a caller-side cursor
    /// (`"seq=5"`, `"chunk=3"`) prefixed to the detail; it is formatted
    /// only when a line is written.
    pub fn slide(&mut self, journal: &Journal, at: impl Display, expiry_runs: u64) -> bool {
        if expiry_runs <= self.last_expiry_runs {
            return false;
        }
        journal.record(
            EventKind::SlideBoundary,
            format!("{at} expiry_runs+={}", expiry_runs - self.last_expiry_runs),
        );
        self.last_expiry_runs = expiry_runs;
        true
    }

    /// Journals a [`EventKind::Compaction`] if `query`'s compaction
    /// counter advanced past its watermark.
    pub fn compaction(&mut self, journal: &Journal, query: &str, compactions: u64) -> bool {
        let last = self.last_compactions.get(query).copied().unwrap_or(0);
        if compactions <= last {
            return false;
        }
        journal.record(
            EventKind::Compaction,
            format!("query={query} compactions+={}", compactions - last),
        );
        self.last_compactions.insert(query.to_string(), compactions);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_journal_once_per_advance() {
        let j = Journal::default();
        let mut t = StageTracker::new();
        assert!(!t.slide(&j, "chunk=0", 0));
        assert!(t.slide(&j, "chunk=1", 3));
        assert!(!t.slide(&j, "chunk=2", 3));
        assert!(t.compaction(&j, "reach", 1));
        assert!(!t.compaction(&j, "reach", 1));

        let events = j.since(0);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::SlideBoundary);
        assert_eq!(events[0].detail, "chunk=1 expiry_runs+=3");
        assert_eq!(events[1].kind, EventKind::Compaction);
        assert_eq!(events[1].detail, "query=reach compactions+=1");
    }

    #[test]
    fn seeding_suppresses_lifetime_totals() {
        let j = Journal::default();
        let mut t = StageTracker::new();
        t.seed(100);
        t.seed_query("q", 7);
        assert!(!t.slide(&j, "seq=1", 100));
        assert!(!t.compaction(&j, "q", 7));
        assert!(t.slide(&j, "seq=2", 101));
        let events = j.since(0);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].detail, "seq=2 expiry_runs+=1");

        // Reset: a fresh query under the same name reports from zero.
        t.reset_query("q");
        assert!(t.compaction(&j, "q", 1));
    }
}
