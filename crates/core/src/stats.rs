//! Engine statistics: Δ index size and operation counters.
//!
//! Figure 5 plots the number of spanning trees and the total number of
//! nodes in Δ per query; Figure 9 correlates Δ size with throughput;
//! Figure 6(b) reports time spent in window management. [`EngineStats`]
//! exposes all three.

/// A point-in-time measurement of the Δ tree index size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexSize {
    /// Number of spanning trees in Δ.
    pub trees: usize,
    /// Total number of nodes over all spanning trees (roots included).
    pub nodes: usize,
    /// Resident bytes of the node arenas — slot records plus timestamp
    /// column — over live slots and not-yet-compacted dead slots
    /// (excludes occurrence maps).
    pub arena_bytes: usize,
    /// Heap bytes of the result-deduplication set (every pair reported
    /// since the stream began, minus invalidations).
    pub result_bytes: usize,
    /// Heap bytes of the reverse index (vertex → trees containing it),
    /// pooled entries included.
    pub reverse_index_bytes: usize,
}

/// Cumulative operation counters maintained by the engines.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Tuples this engine evaluated (insertions + deletions): those
    /// whose label is in Σ_Q. The host routes no other tuple here, and a
    /// backfill replay skips the rest of the window.
    pub tuples_processed: u64,
    /// Explicit deletions processed.
    pub deletions_processed: u64,
    /// Calls to the tree-extension procedure (Insert / Extend) — the
    /// quantity the amortized analysis (Theorems 2 and 5) bounds.
    pub insert_calls: u64,
    /// Results pushed to the sink (after deduplication).
    pub results_emitted: u64,
    /// Invalidations pushed to the sink.
    pub results_invalidated: u64,
    /// Expiry passes executed.
    pub expiry_runs: u64,
    /// Nodes removed by expiry passes (not reconnected): a removed node
    /// counts only if the reconnection pass of the same `expire_tree`
    /// call did not re-attach its `(vertex, state)` pair — the same
    /// definition under both path semantics.
    pub nodes_expired: u64,
    /// Nanoseconds spent inside expiry passes (window management time,
    /// Figure 6b). Wall-clock, so not checkpointed: a recovered engine
    /// restarts it at 0.
    pub expiry_nanos: u64,
    /// Conflicts detected (RSPQ only).
    pub conflicts_detected: u64,
    /// Nodes unmarked due to conflicts (RSPQ only).
    pub nodes_unmarked: u64,
    /// Tuples whose RSPQ traversal was aborted by the per-tuple extend
    /// budget (results possibly incomplete; see
    /// `EngineConfig::rspq_extend_budget`).
    pub budget_exhausted: u64,
    /// Tuples routed to this engine by a multi-query host (label
    /// routing hits; zero for engines driven directly). Deterministic —
    /// it equals the count of alphabet-matching tuples since
    /// registration.
    pub tuples_routed: u64,
    /// Nanoseconds a multi-query host spent inside this engine's
    /// evaluation calls (extension, expiry, deletions). Wall-clock:
    /// operators compare queries within one run (`srpq query list`) to
    /// find the hot one; never compare across runs. Not checkpointed: a
    /// recovered engine restarts it at 0.
    pub eval_ns: u64,
    /// Live Δ nodes (gauge, refreshed after deletions and expiry).
    pub delta_nodes_live: u64,
    /// Total Δ arena slots, live + free-listed (gauge). The gap to
    /// [`EngineStats::delta_nodes_live`] is the fragmentation the
    /// per-slide compactor bounds.
    pub delta_capacity: u64,
    /// Arena compactions performed (per-tree, per-slide).
    pub compactions: u64,
}

/// A structural profile of one query's Δ spanning forest, computed on
/// demand for introspection (`ctl explain`). Walking every node is
/// O(|Δ|) — this never runs on the tuple path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaProfile {
    /// Number of spanning trees.
    pub trees: usize,
    /// Live nodes over all trees.
    pub nodes: usize,
    /// Arena slots (live + free-listed).
    pub slots: usize,
    /// Resident bytes of the node arenas.
    pub arena_bytes: usize,
    /// Live node count per DFA state, sorted by state id. States with
    /// no live nodes are omitted.
    pub nodes_per_state: Vec<(u32, u64)>,
    /// Node count by depth (root = 0); index `DEPTH_BUCKETS - 1`
    /// accumulates everything at or beyond that depth.
    pub depth_histogram: Vec<u64>,
}

impl DeltaProfile {
    /// Length of [`DeltaProfile::depth_histogram`]; the last bucket is
    /// an overflow bucket.
    pub const DEPTH_BUCKETS: usize = 33;

    /// The deepest non-empty depth bucket (0 when the forest is empty).
    pub fn max_depth(&self) -> usize {
        self.depth_histogram
            .iter()
            .rposition(|&c| c > 0)
            .unwrap_or(0)
    }
}

/// Cumulative per-stage time spent inside a multi-query host's batch
/// path, split the way the serving pipeline is staged: routing (label
/// lookup, slide grouping, shared-graph maintenance, fan-out
/// bookkeeping), evaluation (per-query Δ extension — includes expiry),
/// and expiry alone (the window-management slice of evaluation,
/// Fig. 6b). An observability layer records per-batch deltas of these
/// counters into stage histograms; the engines themselves stay free of
/// any metrics dependency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTotals {
    /// Batches processed through the batch path.
    pub batches: u64,
    /// Nanoseconds of batch time outside per-query evaluation calls.
    pub route_ns: u64,
    /// Nanoseconds inside per-query evaluation calls (expiry included).
    pub eval_ns: u64,
    /// Nanoseconds of evaluation spent in expiry passes.
    pub expiry_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_zero() {
        let s = EngineStats::default();
        assert_eq!(s.tuples_processed, 0);
        assert_eq!(s.insert_calls, 0);
        assert_eq!(IndexSize::default().nodes, 0);
    }
}
