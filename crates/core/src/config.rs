//! Engine configuration knobs.
//!
//! The result semantics are not configurable: each `(x, y)` pair is
//! reported once under the implicit window and invalidated only when an
//! explicit deletion destroys its last witness path (§3.2), and
//! registrations with equal languages always share one evaluation group
//! (see [`crate::multi`]). Neither is the timestamp refresh of a
//! re-reached Δ node: RAPQ follows the pseudocode of Algorithm RAPQ
//! line 7 and re-points the node without re-expanding its subtree.

use srpq_graph::WindowPolicy;

/// Tunables of an engine, under either path semantics.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineConfig {
    /// Sliding-window size and slide interval.
    pub window: WindowPolicy,
    /// RSPQ safety valve: maximum `Extend` invocations a single tuple
    /// may trigger before the traversal is aborted (conflicted
    /// instances are worst-case exponential, and one tuple can run
    /// unboundedly long). `None` (default) means unlimited. When the
    /// budget trips, processing of that tuple stops — results may be
    /// incomplete — and `EngineStats::budget_exhausted` is bumped so
    /// callers can flag the run.
    pub rspq_extend_budget: Option<u64>,
}

impl EngineConfig {
    /// Configuration with the given window and paper-default behaviour.
    pub fn with_window(window: WindowPolicy) -> Self {
        EngineConfig {
            window,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_behaviour() {
        let c = EngineConfig::default();
        assert_eq!(c.window, WindowPolicy::default());
        assert_eq!(c.rspq_extend_budget, None);
    }

    #[test]
    fn with_window_preserves_defaults() {
        let c = EngineConfig::with_window(WindowPolicy::new(100, 10));
        assert_eq!(c.window.window_size, 100);
        assert_eq!(c.window.slide, 10);
        assert_eq!(c.rspq_extend_budget, None);
    }
}
