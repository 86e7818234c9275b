//! Stage beacons: lock-free "what is this thread doing right now"
//! markers for the std-only sampling profiler.
//!
//! Each engine or worker thread owns one [`StageBeacon`] and updates it
//! with two relaxed atomic stores as it moves through the batch path
//! (route → extend → expiry → emit → idle). A sampler thread elsewhere
//! reads the beacons at ~997 Hz and accumulates per-stage tick counts —
//! a wall-clock profile with no locks, no syscalls, and no dependency
//! from the engines on any metrics crate (only this vocabulary crate).
//!
//! The `progress` counter exists for the stall watchdog: a beacon that
//! reports a non-idle stage whose progress value has not moved between
//! two watchdog ticks is a thread stuck mid-batch.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Stage codes published through a [`StageBeacon`]. `u8` so a single
/// relaxed store publishes the whole state.
pub mod stage {
    /// Not inside any tracked stage (parked or between batches).
    pub const IDLE: u8 = 0;
    /// Routing tuples to per-query engines (includes shared window
    /// maintenance).
    pub const ROUTE: u8 = 1;
    /// Per-group Δ-tree extension: for each routed group,
    /// `Engine::advance` then `Engine::dispatch` (a pool worker calls
    /// the pair as `Engine::extend`).
    pub const EXTEND: u8 = 2;
    /// Expiry pass over Δ trees / shared graph purge.
    pub const EXPIRY: u8 = 3;
    /// Emitting results to subscribers.
    pub const EMIT: u8 = 4;
    /// Appending to / fsyncing the write-ahead log.
    pub const WAL: u8 = 5;
    /// Blocked handing a finished batch back to the coordinator.
    pub const HANDOFF: u8 = 6;

    /// Human-readable name for a stage code (collapsed-stack frames).
    pub fn name(code: u8) -> &'static str {
        match code {
            IDLE => "idle",
            ROUTE => "route",
            EXTEND => "extend",
            EXPIRY => "expiry",
            EMIT => "emit",
            WAL => "wal",
            HANDOFF => "handoff",
            _ => "unknown",
        }
    }

    /// Number of distinct stage codes (array-sizing constant for
    /// samplers).
    pub const COUNT: usize = 7;
}

/// A per-thread stage marker read by the sampling profiler and the
/// stall watchdog. All operations are relaxed atomics — the readers
/// only need eventually-visible values, never synchronization.
#[derive(Debug, Default)]
pub struct StageBeacon {
    stage: AtomicU8,
    progress: AtomicU64,
}

impl StageBeacon {
    /// Creates a beacon in the idle stage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes the stage this thread is entering.
    #[inline]
    pub fn set(&self, stage: u8) {
        self.stage.store(stage, Ordering::Relaxed);
    }

    /// Bumps the progress counter (call once per unit of work — batch,
    /// tuple group, job — so the watchdog can tell "busy" from
    /// "stuck").
    #[inline]
    pub fn advance(&self) {
        self.progress.fetch_add(1, Ordering::Relaxed);
    }

    /// Current `(stage, progress)` pair, as last published.
    #[inline]
    pub fn load(&self) -> (u8, u64) {
        (
            self.stage.load(Ordering::Relaxed),
            self.progress.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beacon_publishes_stage_and_progress() {
        let b = StageBeacon::new();
        assert_eq!(b.load(), (stage::IDLE, 0));
        b.set(stage::ROUTE);
        b.advance();
        b.advance();
        assert_eq!(b.load(), (stage::ROUTE, 2));
        b.set(stage::IDLE);
        assert_eq!(b.load().0, stage::IDLE);
    }

    #[test]
    fn stage_names_cover_all_codes() {
        for code in 0..stage::COUNT as u8 {
            assert_ne!(stage::name(code), "unknown", "code {code}");
        }
        assert_eq!(stage::name(200), "unknown");
    }
}
