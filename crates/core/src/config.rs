//! Engine configuration knobs.

use srpq_graph::WindowPolicy;

/// How Algorithm RAPQ treats a Δ node that is re-reached through a path
/// with a *fresher* timestamp (line 7 of Algorithm RAPQ).
///
/// The paper's pseudocode updates the node's parent pointer and
/// timestamp without re-expanding its subtree; its worked example
/// (Figure 2a) shows the node untouched, relying on expiry-time
/// reconnection instead. Both are correct — stale timestamps are lower
/// bounds that `ExpiryRAPQ` self-heals — so we expose all three points
/// of the design space as an ablation (`ablation_refresh` bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefreshPolicy {
    /// Never refresh: matches Figure 2(a); maximum expiry work.
    None,
    /// Refresh the re-reached node only (parent pointer + timestamp):
    /// matches the pseudocode of Algorithm RAPQ / Insert. Default.
    #[default]
    Node,
    /// Refresh the node and propagate improved timestamps through its
    /// subtree eagerly: minimum expiry work, extra per-tuple work.
    Subtree,
}

/// Tunables of an engine, under either path semantics.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Sliding-window size and slide interval.
    pub window: WindowPolicy,
    /// Deduplicate the result stream: each `(x, y)` pair is emitted at
    /// most once until it is invalidated (implicit windows make results
    /// monotonic, so re-derivations carry no information). Default true.
    pub dedup_results: bool,
    /// Report invalidations for results whose last witness path was
    /// destroyed by an explicit deletion (§3.2). Default true.
    pub report_invalidations: bool,
    /// Timestamp-refresh behaviour on re-reached nodes (RAPQ only).
    pub refresh: RefreshPolicy,
    /// RSPQ safety valve: maximum `Extend` invocations a single tuple
    /// may trigger before the traversal is aborted (conflicted
    /// instances are worst-case exponential, and one tuple can run
    /// unboundedly long). `None` (default) means unlimited. When the
    /// budget trips, processing of that tuple stops — results may be
    /// incomplete — and `EngineStats::budget_exhausted` is bumped so
    /// callers can flag the run.
    pub rspq_extend_budget: Option<u64>,
    /// Multi-query sharing: when true (default), registrations whose
    /// automata have equal canonical signatures attach to one shared
    /// evaluation group (one Δ forest, one emitted-set) and emissions
    /// are fanned out per subscriber. When false every registration
    /// founds a private group — the unshared baseline the equivalence
    /// suite and the `mqo_scaling` bench compare against. Per-subscriber
    /// event streams are byte-identical either way.
    pub shared_groups: bool,
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

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            window: WindowPolicy::default(),
            dedup_results: true,
            report_invalidations: true,
            refresh: RefreshPolicy::Node,
            rspq_extend_budget: None,
            shared_groups: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_behaviour() {
        let c = EngineConfig::default();
        assert!(c.dedup_results);
        assert!(c.report_invalidations);
        assert_eq!(c.refresh, RefreshPolicy::Node);
    }

    #[test]
    fn with_window_preserves_defaults() {
        let c = EngineConfig::with_window(WindowPolicy::new(100, 10));
        assert_eq!(c.window.window_size, 100);
        assert_eq!(c.window.slide, 10);
        assert!(c.dedup_results);
    }
}
