//! The shared Δ spanning-forest index.
//!
//! Both streaming algorithms of the paper maintain the same core data
//! structure: a collection of spanning trees of the product graph
//! `G × A`, one per vertex `x` that roots a node `(x, s0)`, where a
//! node `(u, s)` witnesses a path `x ⇝ u` driving the automaton from
//! `s0` to `s` and carries the minimum edge timestamp along that path
//! (Definitions 9 and 12). Algorithm RAPQ (§3) keeps at most one node
//! per `(vertex, state)` pair; Algorithm RSPQ (§4) additionally keeps
//! duplicate occurrences materialized by conflict replay, plus the
//! marking set `M_x` (Definition 18).
//!
//! This module factors the common 90% into one arena-backed
//! implementation, parameterized by a [`TreeSemantics`] hook type:
//!
//! * [`Tree`]`<X>` — one spanning tree, stored as an arena of two
//!   parallel vectors: a dedicated contiguous timestamp column (so
//!   expiry candidate collection is a branch-free threshold scan) and
//!   one record per slot for `(vertex, state)`, parent link, via-label
//!   and the intrusive first-child/next-sibling links that hold the
//!   tree's shape instead of per-node heap children lists; plus the
//!   `(vertex, state) → occurrences` side index, timestamp
//!   maintenance, subtree detach/expiry, per-slide arena compaction
//!   ([`Tree::maybe_compact`]), and path queries;
//! * [`Forest`]`<X>` — the Δ index: all trees plus the [`RevIndex`]
//!   mapping vertices to the trees containing them (what bounds
//!   per-tuple work by the number of *relevant* trees) and keeping the
//!   node count and the arena slot ledger (what makes occupancy an
//!   O(1) read), and the due-tree filter that bounds per-slide work by
//!   the trees with something to expire;
//! * [`Unique`] — the RAPQ instantiation: enforces (and exposes a keyed
//!   API around) the one-occurrence invariant of Lemma 1;
//! * [`Markings`](crate::rspq::markings::Markings) — the RSPQ
//!   instantiation: the marking set `M_x` layered on the occurrence
//!   index through the same hooks.
//!
//! One shell — [`crate::engine::Engine`] — owns either forest and
//! reaches it through three per-tree procedures (extend one tree with
//! an edge, sever a deleted edge's victims, expire one tree); see the
//! table in its module docs.
//!
//! # Invariants
//!
//! Maintained here and exercised by this module's tests:
//!
//! 1. **Occurrence uniqueness** (RAPQ / [`Unique`] only): each
//!    `(vertex, state)` pair appears at most once per tree (Lemma 1,
//!    invariant 2) — [`Tree::validate`] rejects duplicates through the
//!    semantics hook.
//! 2. **Timestamp monotonicity**: timestamps never increase from root
//!    to leaf — a node's timestamp is `min(parent.ts, edge.ts)` at
//!    (re)attachment, and refreshes only ever raise timestamps toward
//!    the root. Consequently the expired set `{n | n.ts ≤ watermark}`
//!    is always a union of whole subtrees, which is what makes batch
//!    pruning in `ExpiryRAPQ`/`ExpiryRSPQ` sound.
//! 3. **Compaction transparency**: [`Tree::maybe_compact`] only
//!    renames arena slots — every link, the occurrence index, and the
//!    semantics extension ([`TreeSemantics::on_compact`]) are remapped
//!    together, so observable behaviour (and therefore recovery
//!    equivalence) is unchanged.
//! 4. **Expiry bound**: [`Tree::min_ts`] is at most the timestamp of
//!    every live non-root node. Every timestamp write lowers it
//!    (`add_child`, `reparent`, and `set_subtree_ts` — which
//!    covers Delete's `-∞` stamp); the two fused expiry sweeps recompute
//!    it exactly over their survivors; `new`, `reset_root` and
//!    `from_snapshot` set it; removals and compaction keep it valid.
//!    It is derived state, never persisted. [`Forest::collect_due_roots`]
//!    skips every non-trivial tree whose bound lies above the
//!    watermark — by the invariant, its sweep would remove nothing —
//!    and [`Tree::validate`] checks the bound.

mod forest;
mod snapshot;
mod tree;
mod unique;

#[cfg(test)]
mod tests;

pub use forest::{Forest, RevIndex};
pub use snapshot::{NodeSnap, SnapshotExt, TreeSnap};
pub use tree::{Node, Tree};
pub use unique::Unique;

use srpq_common::{StateId, VertexId};

/// Arena index of a tree node.
pub type NodeId = u32;

/// A `(vertex, automaton state)` product-graph pair.
pub type PairKey = (VertexId, StateId);

/// Per-tree semantics hooks: the extension point that lets one arena
/// implementation serve both path semantics.
///
/// The hooks observe every structural mutation of the owning
/// [`Tree`]; implementations layer their own bookkeeping on top (RSPQ
/// markings) or enforce extra invariants (RAPQ occurrence uniqueness).
pub trait TreeSemantics: Default + std::fmt::Debug {
    /// A node for `key` was attached at arena slot `id`;
    /// `first_occurrence` is true when no other occurrence of `key`
    /// was present before the attachment (this includes the root at
    /// tree creation).
    fn on_add(&mut self, key: PairKey, id: NodeId, first_occurrence: bool) {
        let _ = (key, id, first_occurrence);
    }

    /// The node at `id` (holding `key`) was removed from the arena.
    fn on_remove(&mut self, key: PairKey, id: NodeId) {
        let _ = (key, id);
    }

    /// The arena was compacted: any [`NodeId`] the extension retains
    /// must be rewritten to `remap[old_id]`. Entries for freed slots
    /// hold a sentinel the extension will never hold a reference to.
    fn on_compact(&mut self, remap: &[NodeId]) {
        let _ = remap;
    }

    /// The tree is being recycled for a new root
    /// ([`Tree::reset_root`]): drop all extension state *in place*,
    /// retaining any container capacity, so pooled-tree reuse stays
    /// allocation-free.
    fn reset(&mut self) {}

    /// Extension-specific structural validation, called from
    /// [`Tree::validate`] after the core checks pass.
    fn validate(&self, tree: &Tree<Self>) -> Result<(), String>
    where
        Self: Sized,
    {
        let _ = tree;
        Ok(())
    }
}
