//! Algorithm RAPQ: streaming RPQ evaluation under arbitrary path
//! semantics (§3 of the paper) — the per-tree procedures the
//! [`Engine`](crate::engine::Engine) shell plugs in for
//! [`PathSemantics::Arbitrary`](crate::engine::PathSemantics).
//!
//! For each incoming tuple `(τ, (u,v), l, +)` the engine simultaneously
//! traverses the snapshot graph and the query DFA — emulating a traversal
//! of the product graph — and extends every spanning tree `T_x ∈ Δ` that
//! contains a live node `(u, s)` with `δ(s, l)` defined (Algorithm RAPQ).
//! Window expiry (`ExpiryRAPQ`) runs lazily at slide boundaries and
//! reconnects orphaned product-graph nodes through surviving window
//! edges; explicit deletions (`Delete`) mark the severed subtree with
//! `-∞` timestamps and reuse the very same expiry machinery (§3.2).

use crate::delta::{Forest, NodeId, RevIndex, Unique};
use crate::engine::{PerTree, TreeCx};
use srpq_automata::Dfa;
use srpq_common::{Label, ResultPair, StreamTuple, Timestamp, VertexId};

/// A tree node key: `(vertex, automaton state)`. With RAPQ's
/// one-occurrence invariant the pair identifies the node.
type NodeKey = crate::delta::PairKey;

/// An RAPQ spanning tree: the shared arena instantiated with the
/// [`Unique`] (one occurrence per pair) semantics.
type Tree = crate::delta::Tree<Unique>;

/// The RAPQ Δ index (Definition 12): the shared forest under [`Unique`]
/// semantics.
type Delta = Forest<Unique>;

/// A unit of deferred `Insert` work: attach the node for `child` under
/// the live node at `parent_id` via a graph edge labeled `via` with
/// timestamp `edge_ts`. The parent is addressed by arena id — resolved
/// once at push time — so the drain loop re-validates it with one
/// column read instead of a hash lookup.
#[derive(Debug, Clone, Copy)]
struct WorkItem {
    parent_id: NodeId,
    child: NodeKey,
    via: Label,
    edge_ts: Timestamp,
}

/// The arbitrary-path Δ index: the forest under [`Unique`] semantics
/// plus the scratch Insert and ExpiryRAPQ reuse across calls.
pub(crate) struct Rapq {
    forest: Delta,
    /// Reusable work stack (avoids reallocating per tuple).
    work: Vec<WorkItem>,
    /// Per-slide scratch: the expiry candidate set of one tree.
    expired: Vec<NodeKey>,
}

impl Rapq {
    pub(crate) fn new() -> Rapq {
        Rapq {
            forest: Delta::new(),
            work: Vec::new(),
            expired: Vec::new(),
        }
    }
}

/// The line-7 condition of Algorithm RAPQ: insert if the child is
/// absent or its timestamp can be improved.
#[inline]
fn should_insert(tree: &Tree, child: NodeKey, parent_ts: Timestamp, edge_ts: Timestamp) -> bool {
    match tree.ts(child) {
        None => true,
        Some(cts) => cts < parent_ts.min(edge_ts),
    }
}

impl PerTree for Rapq {
    type Sem = Unique;

    fn forest(&self) -> &Delta {
        &self.forest
    }

    fn forest_mut(&mut self) -> &mut Delta {
        &mut self.forest
    }

    /// Lines 4–12 of Algorithm RAPQ for one tree: try every DFA
    /// transition `(s, t)` on the edge's label with parent `(u, s)` and
    /// child `(v, t)`.
    fn extend_tree(&mut self, cx: &mut TreeCx<'_>, root: VertexId, edge: StreamTuple) {
        let Some((tree, idx)) = self.forest.tree_with_index(root) else {
            return;
        };
        let (u, v) = (edge.edge.src, edge.edge.dst);
        let work = &mut self.work;
        work.clear();
        for &(s, t) in cx.query.dfa().transitions_for(edge.label) {
            let child = (v, t);
            let Some(pid) = tree.first_occurrence((u, s)) else {
                continue;
            };
            let Some(pts) = tree.ts_of(pid) else { continue };
            if pts <= cx.wm {
                continue; // parent expired (line 6 guard)
            }
            if should_insert(tree, child, pts, edge.ts) {
                work.push(WorkItem {
                    parent_id: pid,
                    child,
                    via: edge.label,
                    edge_ts: edge.ts,
                });
            }
        }
        if !work.is_empty() {
            run_insert(tree, idx, work, cx);
        }
    }

    /// Algorithm Delete's marking step: where `(u,s) → (v,t)` is a
    /// tree edge (Definition 13), stamp the severed subtree `-∞`.
    fn sever_edge(&mut self, dfa: &Dfa, root: VertexId, edge: StreamTuple) -> bool {
        let Some(tree) = self.forest.tree_mut(root) else {
            return false;
        };
        let (u, v) = (edge.edge.src, edge.edge.dst);
        let mut dirty = false;
        for &(s, t) in dfa.transitions_for(edge.label) {
            let key = (v, t);
            if let Some(node) = tree.get(key) {
                if node.via_label == edge.label && tree.parent_key(key) == Some((u, s)) {
                    tree.set_subtree_ts_key(key, Timestamp::NEG_INFINITY);
                    dirty = true;
                }
            }
        }
        dirty
    }

    /// `ExpiryRAPQ` for a single tree.
    fn expire_tree(&mut self, cx: &mut TreeCx<'_>, root: VertexId, invalidate: bool) {
        let Some((tree, idx)) = self.forest.tree_with_index(root) else {
            return;
        };
        let (work, expired) = (&mut self.work, &mut self.expired);
        work.clear();
        // Lines 2–3: candidate set P (downward-closed by the timestamp
        // monotonicity invariant) and prune, fused into one threshold
        // scan over the contiguous timestamp column (the keys land in a
        // reusable scratch buffer for the reconnection pass below).
        tree.remove_expired_keys(cx.wm, expired);
        if expired.is_empty() {
            return;
        }
        for &(ev, _) in expired.iter() {
            idx.note_removed(root, ev);
        }

        // Lines 4–10: reconnection. A candidate (v, t) reattaches if some
        // valid in-edge (u, v) comes from a live (u, s) with δ(s,l) = t;
        // Insert then re-expands its former subtree from graph edges.
        // `transitions_into` × the label-partitioned in-lists visit only
        // the in-edges whose label can actually reach state `et`.
        let (dfa, wm) = (cx.query.dfa(), cx.wm);
        for &(ev, et) in expired.iter() {
            let adj = cx.graph.in_view_at(ev, cx.vis);
            for &(s, label) in dfa.transitions_into(et) {
                for e in adj.edges(label, wm) {
                    let Some(pid) = tree.first_occurrence((e.other, s)) else {
                        continue;
                    };
                    let Some(pts) = tree.ts_of(pid) else { continue };
                    if pts <= wm {
                        continue;
                    }
                    if should_insert(tree, (ev, et), pts, e.ts) {
                        work.push(WorkItem {
                            parent_id: pid,
                            child: (ev, et),
                            via: label,
                            edge_ts: e.ts,
                        });
                        run_insert(tree, idx, work, cx);
                    }
                }
            }
        }

        // Lines 11–15: permanently removed accepting nodes may
        // invalidate results (only meaningful for explicit deletions;
        // window expiry keeps implicit-window monotonicity).
        let mut permanently_removed = 0u64;
        for &(ev, et) in expired.iter() {
            if !tree.contains((ev, et)) {
                permanently_removed += 1;
                if invalidate && dfa.is_accepting(et) {
                    // Another accepting occurrence of `ev` may survive.
                    let witnessed = dfa.accepting_states().any(|f| tree.contains((ev, f)));
                    if !witnessed {
                        let pair = ResultPair::new(root, ev);
                        if cx.emitted.remove(pair) {
                            cx.stats.results_invalidated += 1;
                            cx.sink.invalidate(pair, cx.now);
                        }
                    }
                }
            }
        }
        cx.stats.nodes_expired += permanently_removed;

        // Per-slide compaction: defragment the arena once occupancy
        // drops to half, so long-running windows keep the timestamp
        // scan dense.
        if idx.maybe_compact(tree, cx.compact_scratch) {
            cx.stats.compactions += 1;
        }
    }
}

/// The iterative core of Algorithm Insert: drains `work`, attaching or
/// refreshing nodes and expanding fresh nodes through valid window edges.
///
/// Free function (rather than a method) so the caller can hold disjoint
/// borrows of the tree, the reverse index, and the work stack.
fn run_insert(tree: &mut Tree, idx: &mut RevIndex, work: &mut Vec<WorkItem>, cx: &mut TreeCx<'_>) {
    let (dfa, graph, vis, wm, now) = (cx.query.dfa(), cx.graph, cx.vis, cx.wm, cx.now);
    let (emitted, stats, sink) = (&mut *cx.emitted, &mut *cx.stats, &mut cx.sink);
    let root = tree.root();
    // Every pair this drain reports has the root as its source: its
    // result row is looked up on the first accepting attach, then reused.
    let mut row = emitted.row(root);
    while let Some(WorkItem {
        parent_id,
        child,
        via,
        edge_ts,
    }) = work.pop()
    {
        stats.insert_calls += 1;
        // Re-validate: the tree may have changed since this item was
        // pushed (conditions are monotone, so re-checking is safe).
        // Nothing is removed while work drains, so the parent id is
        // stable and this is a single column read.
        let Some(pts) = tree.ts_of(parent_id) else {
            continue;
        };
        if pts <= wm {
            continue;
        }
        let new_ts = edge_ts.min(pts);
        if new_ts <= wm {
            continue; // the connecting edge itself has expired
        }
        match tree.first_occurrence(child) {
            Some(cid) => {
                // Timestamp refresh (Algorithm RAPQ line 7 / Insert
                // lines 2–3): re-point the parent without re-expanding.
                // Descendants keep their older timestamps, lower bounds
                // that `ExpiryRAPQ` heals by reconnection.
                let Some(cts) = tree.ts_of(cid) else { continue };
                if cts >= new_ts {
                    continue;
                }
                tree.reparent(cid, parent_id, via, new_ts);
            }
            None => {
                let id = idx.add_child(tree, parent_id, child.0, child.1, via, new_ts);
                let (cv, cs) = child;
                if dfa.is_accepting(cs) && row.insert(cv) {
                    stats.results_emitted += 1;
                    sink.emit(ResultPair::new(root, cv), now);
                }
                // Lines 8–11 of Insert: expand through valid window
                // edges out of the new node. The DFA's per-state
                // transition list × the label-partitioned adjacency
                // touches exactly the matching edges, allocation-free.
                let adj = graph.out_view_at(cv, vis);
                for &(label, q) in dfa.transitions_from(cs) {
                    for e in adj.edges(label, wm) {
                        let target = (e.other, q);
                        let cond = match tree.ts(target) {
                            None => true,
                            Some(ts0) => ts0 < new_ts.min(e.ts),
                        };
                        if cond {
                            work.push(WorkItem {
                                parent_id: id,
                                child: target,
                                via: label,
                                edge_ts: e.ts,
                            });
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PathSemantics;
    use crate::multi::solo::Solo;
    use crate::sink::CollectSink;
    use crate::EngineConfig;
    use srpq_automata::CompiledQuery;
    use srpq_common::{LabelInterner, VertexInterner};
    use srpq_graph::WindowPolicy;

    fn rapq(query: CompiledQuery, config: EngineConfig) -> Solo {
        Solo::new(query, config, PathSemantics::Arbitrary)
    }

    /// Builds the Figure 1(a) stream: Q1 = (follows ◦ mentions)+,
    /// |W| = 15. Returns (engine, sink-ready vertex ids, labels).
    struct Fixture {
        engine: Solo,
        verts: VertexInterner,
        labels: LabelInterner,
    }

    fn fig1_engine(slide: i64) -> Fixture {
        let mut labels = LabelInterner::new();
        let query = CompiledQuery::compile("(follows mentions)+", &mut labels).unwrap();
        let config = EngineConfig::with_window(WindowPolicy::new(15, slide));
        let engine = rapq(query, config);
        let mut verts = VertexInterner::new();
        for name in ["x", "y", "z", "u", "v", "w"] {
            verts.intern(name);
        }
        Fixture {
            engine,
            verts,
            labels,
        }
    }

    /// The Figure 1(a) tuple stream up to (and including) time `until`.
    fn fig1_stream(f: &Fixture, until: i64) -> Vec<StreamTuple> {
        let v = |n: &str| f.verts.get(n).unwrap();
        let l = |n: &str| f.labels.get(n).unwrap();
        let raw = [
            (4, "y", "u", "mentions"),
            (6, "x", "z", "follows"),
            (9, "u", "v", "follows"),
            (11, "z", "w", "mentions"),
            (13, "x", "y", "follows"),
            (14, "z", "u", "mentions"),
            (15, "u", "x", "mentions"),
            (18, "v", "y", "mentions"),
            (19, "w", "u", "follows"),
        ];
        raw.iter()
            .filter(|&&(ts, ..)| ts <= until)
            .map(|&(ts, a, b, lab)| StreamTuple::insert(Timestamp(ts), v(a), v(b), l(lab)))
            .collect()
    }

    fn node(
        f: &Fixture,
        root: &str,
        vertex: &str,
        state: u32,
    ) -> Option<(Option<NodeKey>, Timestamp)> {
        let tree = f.engine.rapq_forest().tree(f.verts.get(root).unwrap())?;
        let key = (f.verts.get(vertex).unwrap(), srpq_common::StateId(state));
        tree.get(key).map(|n| (tree.parent_key(key), n.ts))
    }

    #[test]
    fn figure_2a_tree_shape_without_refresh() {
        // Up to t=13 no arrival reaches an existing node with a fresher
        // timestamp, so no refresh has fired and T_x is exactly the
        // Figure 2(a) tree minus (y, 2), which the t=18 edge adds.
        let mut f = fig1_engine(1000);
        let mut sink = CollectSink::default();
        for t in fig1_stream(&f, 13) {
            f.engine.process(t, &mut sink);
        }
        let v = |n: &str| f.verts.get(n).unwrap();
        let s = |i: u32| srpq_common::StateId(i);

        // T_x nodes with parents and timestamps as drawn.
        assert_eq!(
            node(&f, "x", "y", 1),
            Some((Some((v("x"), s(0))), Timestamp(13)))
        );
        assert_eq!(
            node(&f, "x", "z", 1),
            Some((Some((v("x"), s(0))), Timestamp(6)))
        );
        assert_eq!(
            node(&f, "x", "u", 2),
            Some((Some((v("y"), s(1))), Timestamp(4)))
        );
        assert_eq!(
            node(&f, "x", "v", 1),
            Some((Some((v("u"), s(2))), Timestamp(4)))
        );
        assert_eq!(
            node(&f, "x", "w", 2),
            Some((Some((v("z"), s(1))), Timestamp(6)))
        );
        assert_eq!(node(&f, "x", "y", 2), None);
        assert!(!f.engine.has_result(ResultPair::new(v("x"), v("y"))));
        f.engine.validate_delta().unwrap();
    }

    #[test]
    fn pseudocode_refresh_reparents_at_t14() {
        // The Figure 1(a) stream up to t=18 with a slide large enough
        // that no expiry pass runs. Under the paper's pseudocode
        // (Algorithm RAPQ line 7) the arrival of (z → u, mentions) at
        // t=14 re-points (u, 2) under (z, 1) with timestamp 6, where
        // Figure 2(a) draws it untouched; every other node of T_x is as
        // drawn.
        let mut f = fig1_engine(1000);
        let mut sink = CollectSink::default();
        for t in fig1_stream(&f, 18) {
            f.engine.process(t, &mut sink);
        }
        let v = |n: &str| f.verts.get(n).unwrap();
        let s = |i: u32| srpq_common::StateId(i);

        assert_eq!(
            node(&f, "x", "y", 1),
            Some((Some((v("x"), s(0))), Timestamp(13)))
        );
        assert_eq!(
            node(&f, "x", "z", 1),
            Some((Some((v("x"), s(0))), Timestamp(6)))
        );
        assert_eq!(
            node(&f, "x", "u", 2),
            Some((Some((v("z"), s(1))), Timestamp(6)))
        );
        // Descendants keep their stale (smaller) timestamps.
        assert_eq!(
            node(&f, "x", "v", 1),
            Some((Some((v("u"), s(2))), Timestamp(4)))
        );
        assert_eq!(
            node(&f, "x", "y", 2),
            Some((Some((v("v"), s(1))), Timestamp(4)))
        );
        assert_eq!(
            node(&f, "x", "w", 2),
            Some((Some((v("z"), s(1))), Timestamp(6)))
        );
        // Result (x, y) reported at t=18 (Example in §1).
        assert!(f.engine.has_result(ResultPair::new(v("x"), v("y"))));
        f.engine.validate_delta().unwrap();
    }

    #[test]
    fn figure_2b_after_expiry_at_t19() {
        // With slide = 1 the expiry pass at t=19 prunes the ts=4 chain
        // and reconnects it under (u,2), which the t=14 refresh already
        // re-pointed through the valid edge (z → u, 14), yielding the
        // Figure 2(b) tree.
        let mut f = fig1_engine(1);
        let mut sink = CollectSink::default();
        for t in fig1_stream(&f, 19) {
            f.engine.process(t, &mut sink);
        }
        let v = |n: &str| f.verts.get(n).unwrap();
        let s = |i: u32| srpq_common::StateId(i);

        assert_eq!(
            node(&f, "x", "y", 1),
            Some((Some((v("x"), s(0))), Timestamp(13)))
        );
        // Reconnected chain, all at ts 6.
        assert_eq!(
            node(&f, "x", "u", 2),
            Some((Some((v("z"), s(1))), Timestamp(6)))
        );
        assert_eq!(
            node(&f, "x", "v", 1),
            Some((Some((v("u"), s(2))), Timestamp(6)))
        );
        assert_eq!(
            node(&f, "x", "y", 2),
            Some((Some((v("v"), s(1))), Timestamp(6)))
        );
        // New nodes from the t=19 edge (w → u, follows).
        assert_eq!(
            node(&f, "x", "u", 1),
            Some((Some((v("w"), s(2))), Timestamp(6)))
        );
        assert_eq!(
            node(&f, "x", "x", 2),
            Some((Some((v("u"), s(1))), Timestamp(6)))
        );
        assert_eq!(
            node(&f, "x", "w", 2),
            Some((Some((v("z"), s(1))), Timestamp(6)))
        );
        f.engine.validate_delta().unwrap();
    }

    #[test]
    fn emits_pair_for_even_alternating_path() {
        let mut f = fig1_engine(1);
        let mut sink = CollectSink::default();
        for t in fig1_stream(&f, 19) {
            f.engine.process(t, &mut sink);
        }
        let v = |n: &str| f.verts.get(n).unwrap();
        let pairs = sink.pairs();
        // (x, y) via x→y→u→v→y at t=18 and (x, x) via the cycle at 19.
        assert!(pairs.contains(&ResultPair::new(v("x"), v("y"))));
        assert!(pairs.contains(&ResultPair::new(v("x"), v("x"))));
    }

    #[test]
    fn foreign_labels_are_discarded() {
        let mut f = fig1_engine(1);
        let mut labels = f.labels.clone();
        let likes = labels.intern("likes");
        let mut sink = CollectSink::default();
        let x = f.verts.get("x").unwrap();
        let y = f.verts.get("y").unwrap();
        f.engine
            .process(StreamTuple::insert(Timestamp(1), x, y, likes), &mut sink);
        // The router drops the tuple: seen, never routed to the group.
        assert_eq!(f.engine.multi.routing_stats(), (1, 0));
        assert_eq!(f.engine.stats().tuples_processed, 0);
        assert_eq!(f.engine.graph().n_edges(), 0);
    }

    #[test]
    fn window_separates_old_and_new_edges() {
        // a ◦ b with |W| = 5: edges 10 apart never form a result.
        let mut labels = LabelInterner::new();
        let query = CompiledQuery::compile("a b", &mut labels).unwrap();
        let config = EngineConfig::with_window(WindowPolicy::new(5, 1));
        let mut engine = rapq(query, config);
        let a = labels.get("a").unwrap();
        let b = labels.get("b").unwrap();
        let (v0, v1, v2) = (VertexId(0), VertexId(1), VertexId(2));
        let mut sink = CollectSink::default();
        engine.process(StreamTuple::insert(Timestamp(1), v0, v1, a), &mut sink);
        engine.process(StreamTuple::insert(Timestamp(11), v1, v2, b), &mut sink);
        assert!(sink.pairs().is_empty());

        // Within the window it does.
        engine.process(StreamTuple::insert(Timestamp(12), v0, v1, a), &mut sink);
        assert_eq!(sink.pairs().len(), 1);
        assert!(engine.has_result(ResultPair::new(v0, v2)));
    }

    #[test]
    fn results_require_all_edges_in_one_window() {
        // Definition 9: all edges of a witness path must be < |W| apart.
        let mut labels = LabelInterner::new();
        let query = CompiledQuery::compile("a+", &mut labels).unwrap();
        let config = EngineConfig::with_window(WindowPolicy::new(10, 1));
        let mut engine = rapq(query, config);
        let a = labels.get("a").unwrap();
        let mut sink = CollectSink::default();
        // Chain 0→1→2 with a gap: 0→1 at t=1, 1→2 at t=20.
        engine.process(
            StreamTuple::insert(Timestamp(1), VertexId(0), VertexId(1), a),
            &mut sink,
        );
        engine.process(
            StreamTuple::insert(Timestamp(20), VertexId(1), VertexId(2), a),
            &mut sink,
        );
        let pairs = sink.pairs();
        assert!(pairs.contains(&ResultPair::new(VertexId(0), VertexId(1))));
        assert!(pairs.contains(&ResultPair::new(VertexId(1), VertexId(2))));
        assert!(!pairs.contains(&ResultPair::new(VertexId(0), VertexId(2))));
    }

    #[test]
    fn explicit_delete_invalidates_results() {
        let mut labels = LabelInterner::new();
        let query = CompiledQuery::compile("a b", &mut labels).unwrap();
        let config = EngineConfig::with_window(WindowPolicy::new(100, 1));
        let mut engine = rapq(query, config);
        let a = labels.get("a").unwrap();
        let b = labels.get("b").unwrap();
        let (v0, v1, v2) = (VertexId(0), VertexId(1), VertexId(2));
        let mut sink = CollectSink::default();
        engine.process(StreamTuple::insert(Timestamp(1), v0, v1, a), &mut sink);
        engine.process(StreamTuple::insert(Timestamp(2), v1, v2, b), &mut sink);
        assert!(engine.has_result(ResultPair::new(v0, v2)));

        engine.process(StreamTuple::delete(Timestamp(3), v0, v1, a), &mut sink);
        assert!(!engine.has_result(ResultPair::new(v0, v2)));
        assert_eq!(sink.invalidated().len(), 1);
        assert_eq!(engine.stats().deletions_processed, 1);
        engine.validate_delta().unwrap();
    }

    #[test]
    fn delete_with_alternative_witness_keeps_result() {
        // Two parallel a-edges from 0 to 1: deleting one leaves the
        // result derivable... but they are the same (src,dst,label) edge,
        // so use two distinct intermediate vertices instead.
        let mut labels = LabelInterner::new();
        let query = CompiledQuery::compile("a b", &mut labels).unwrap();
        let config = EngineConfig::with_window(WindowPolicy::new(100, 1));
        let mut engine = rapq(query, config);
        let a = labels.get("a").unwrap();
        let b = labels.get("b").unwrap();
        let (v0, v1, v2, v3) = (VertexId(0), VertexId(1), VertexId(2), VertexId(3));
        let mut sink = CollectSink::default();
        // 0 →a 1 →b 3 and 0 →a 2 →b 3.
        engine.process(StreamTuple::insert(Timestamp(1), v0, v1, a), &mut sink);
        engine.process(StreamTuple::insert(Timestamp(2), v1, v3, b), &mut sink);
        engine.process(StreamTuple::insert(Timestamp(3), v0, v2, a), &mut sink);
        engine.process(StreamTuple::insert(Timestamp(4), v2, v3, b), &mut sink);
        assert!(engine.has_result(ResultPair::new(v0, v3)));

        // Deleting the first witness keeps the result via the second.
        engine.process(StreamTuple::delete(Timestamp(5), v0, v1, a), &mut sink);
        assert!(engine.has_result(ResultPair::new(v0, v3)));
        assert!(sink.invalidated().is_empty());

        // Deleting the second witness finally invalidates.
        engine.process(StreamTuple::delete(Timestamp(6), v0, v2, a), &mut sink);
        assert!(!engine.has_result(ResultPair::new(v0, v3)));
        assert_eq!(sink.invalidated().len(), 1);
    }

    #[test]
    fn delete_of_nontree_edge_is_cheap() {
        let mut labels = LabelInterner::new();
        let query = CompiledQuery::compile("a+", &mut labels).unwrap();
        let config = EngineConfig::with_window(WindowPolicy::new(100, 1));
        let mut engine = rapq(query, config);
        let a = labels.get("a").unwrap();
        let (v0, v1) = (VertexId(0), VertexId(1));
        let mut sink = CollectSink::default();
        engine.process(StreamTuple::insert(Timestamp(1), v0, v1, a), &mut sink);
        // (1 → 0) creates the cycle; both (0,1) and (1,0) are results.
        engine.process(StreamTuple::insert(Timestamp(2), v1, v0, a), &mut sink);
        assert!(engine.has_result(ResultPair::new(v0, v0)));

        // Delete an edge that is a tree edge in T_1 but not in T_0's
        // subtree rooted deeper — either way the engine stays consistent.
        engine.process(StreamTuple::delete(Timestamp(3), v1, v0, a), &mut sink);
        assert!(engine.has_result(ResultPair::new(v0, v1)));
        assert!(!engine.has_result(ResultPair::new(v0, v0)));
        engine.validate_delta().unwrap();
    }

    #[test]
    fn expiry_reduces_index_size() {
        let mut labels = LabelInterner::new();
        let query = CompiledQuery::compile("a+", &mut labels).unwrap();
        let config = EngineConfig::with_window(WindowPolicy::new(10, 5));
        let mut engine = rapq(query, config);
        let a = labels.get("a").unwrap();
        let mut sink = CollectSink::default();
        for i in 0..20u32 {
            engine.process(
                StreamTuple::insert(Timestamp(i as i64), VertexId(i), VertexId(i + 1), a),
                &mut sink,
            );
        }
        // Old chain prefixes must have been expired.
        let size = engine.index_size();
        assert!(size.nodes < 20 * 20, "index did not shrink: {size:?}");
        // Process far-future tuple: everything old expires.
        engine.process(
            StreamTuple::insert(Timestamp(1000), VertexId(100), VertexId(101), a),
            &mut sink,
        );
        engine.expire_now(&mut sink);
        let size = engine.index_size();
        assert!(size.nodes <= 3, "stale nodes linger: {size:?}");
        engine.validate_delta().unwrap();
    }

    #[test]
    fn duplicate_results_are_deduplicated() {
        let mut labels = LabelInterner::new();
        let query = CompiledQuery::compile("a", &mut labels).unwrap();
        let config = EngineConfig::with_window(WindowPolicy::new(100, 1));
        let mut engine = rapq(query, config);
        let a = labels.get("a").unwrap();
        let mut sink = CollectSink::default();
        let t = StreamTuple::insert(Timestamp(1), VertexId(0), VertexId(1), a);
        engine.process(t, &mut sink);
        let t2 = StreamTuple::insert(Timestamp(2), VertexId(0), VertexId(1), a);
        engine.process(t2, &mut sink);
        assert_eq!(sink.emitted().len(), 1);
        assert_eq!(engine.stats().results_emitted, 1);
    }

    #[test]
    fn self_loop_accepting_path() {
        let mut labels = LabelInterner::new();
        let query = CompiledQuery::compile("a+", &mut labels).unwrap();
        let config = EngineConfig::with_window(WindowPolicy::new(100, 1));
        let mut engine = rapq(query, config);
        let a = labels.get("a").unwrap();
        let mut sink = CollectSink::default();
        engine.process(
            StreamTuple::insert(Timestamp(1), VertexId(0), VertexId(0), a),
            &mut sink,
        );
        assert!(engine.has_result(ResultPair::new(VertexId(0), VertexId(0))));
    }
}
