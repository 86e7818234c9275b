//! Algorithm RSPQ: streaming RPQ evaluation under simple path semantics
//! (§4 of the paper) — the per-tree procedures the
//! [`Engine`](crate::engine::Engine) shell plugs in for
//! [`PathSemantics::Simple`](crate::engine::PathSemantics).
//!
//! RSPQ evaluation is NP-hard in general (Mendelzon & Wood), but
//! tractable in the absence of *conflicts* — situations where a product
//! graph traversal revisits a vertex in two states whose suffix
//! languages are not contained (Definition 16). The streaming algorithm
//! mirrors Algorithm RAPQ but:
//!
//! * a traversal may revisit a vertex when suffix-language containment
//!   proves a simple witness path exists (Theorem 4);
//! * each tree keeps a set of **markings** `M_x` — pairs with no
//!   conflict-predecessor descendants — that prune redundant traversal;
//! * when a late-arriving edge reveals a conflict, `Unmark` removes the
//!   ancestors of the conflict predecessor from `M_x` and replays the
//!   traversals that were previously pruned because of those marks.

pub mod markings;

use crate::bitset::GenBitSet;
use crate::delta::{Forest, NodeId, PairKey, RevIndex};
use crate::engine::{PerTree, TreeCx};
use markings::Markings;
use srpq_automata::Dfa;
use srpq_common::{Label, ResultPair, StateId, StreamTuple, Timestamp, VertexId};
use srpq_graph::{Visibility, WindowGraph};

/// An RSPQ spanning tree `T_x` with markings `M_x`: the shared arena
/// instantiated with the [`Markings`] semantics.
type SpTree = crate::delta::Tree<Markings>;

/// The Δ index for simple path semantics: the shared forest under
/// [`Markings`] semantics.
type SpDelta = Forest<Markings>;

/// A deferred `Extend` invocation: try to attach `(vertex, state)` under
/// arena node `parent_id` via an edge labeled `via`.
#[derive(Debug, Clone, Copy)]
struct ExtendItem {
    parent_id: NodeId,
    vertex: VertexId,
    state: StateId,
    via: Label,
    edge_ts: Timestamp,
}

/// The `(vertex, state)` product-pair bit for the generation-stamped
/// frontier bitsets: vertex slots are dense (interned), the DFA state
/// count (`stride`) is a small per-query constant.
#[inline]
fn pair_bit(v: VertexId, s: StateId, stride: u64) -> u64 {
    v.0 as u64 * stride + s.0 as u64
}

/// The simple-path Δ index: the forest under [`Markings`] semantics
/// plus the scratch Extend, Unmark and ExpiryRSPQ reuse across calls.
pub(crate) struct Rspq {
    forest: SpDelta,
    work: Vec<ExtendItem>,
    /// Per-slide scratch: `(pair, surviving parent)` of removed nodes.
    removed: Vec<(PairKey, Option<NodeId>)>,
    /// Per-reconnection scratch: occurrence-list copy (the list may
    /// shift while `run_extend` mutates the tree).
    occs: Vec<NodeId>,
    /// Per-delete scratch: tree-edge victims of one deletion.
    victims: Vec<NodeId>,
    /// Root-path membership bitset, rebuilt per extend item.
    path_bits: GenBitSet,
    /// Dead-mark membership bitset (pair domain).
    dead_mark_bits: GenBitSet,
    /// Invalidation dedup bitset (vertex domain).
    seen_bits: GenBitSet,
}

impl Rspq {
    pub(crate) fn new() -> Rspq {
        Rspq {
            forest: SpDelta::new(),
            work: Vec::new(),
            removed: Vec::new(),
            occs: Vec::new(),
            victims: Vec::new(),
            path_bits: GenBitSet::new(),
            dead_mark_bits: GenBitSet::new(),
            seen_bits: GenBitSet::new(),
        }
    }
}

impl PerTree for Rspq {
    type Sem = Markings;

    fn forest(&self) -> &SpDelta {
        &self.forest
    }

    fn forest_mut(&mut self) -> &mut SpDelta {
        &mut self.forest
    }

    /// Lines 4–12 of Algorithm RSPQ for one tree: each live occurrence
    /// of `(u, s)` may extend with `(v, t)` unless pruned by the
    /// path-cycle or marking guards.
    fn extend_tree(&mut self, cx: &mut TreeCx<'_>, root: VertexId, edge: StreamTuple) {
        let Some((tree, idx)) = self.forest.tree_with_index(root) else {
            return;
        };
        let (u, v) = (edge.edge.src, edge.edge.dst);
        let work = &mut self.work;
        work.clear();
        for &(s, t) in cx.query.dfa().transitions_for(edge.label) {
            for &occ in tree.occurrences((u, s)) {
                let Some(occ_ts) = tree.ts_of(occ) else {
                    continue;
                };
                if occ_ts <= cx.wm {
                    continue;
                }
                if tree.path_has(occ, v, t) || tree.is_marked((v, t)) {
                    continue;
                }
                work.push(ExtendItem {
                    parent_id: occ,
                    vertex: v,
                    state: t,
                    via: edge.label,
                    edge_ts: edge.ts,
                });
            }
        }
        if !work.is_empty() {
            run_extend(tree, idx, work, &mut self.path_bits, cx);
        }
    }

    /// Algorithm Delete's marking step: every occurrence of `(v, t)`
    /// whose tree edge is the deleted edge loses its subtree
    /// (Definition 13).
    fn sever_edge(&mut self, dfa: &Dfa, root: VertexId, edge: StreamTuple) -> bool {
        let Some(tree) = self.forest.tree_mut(root) else {
            return false;
        };
        let (u, v, label) = (edge.edge.src, edge.edge.dst, edge.label);
        let victims = &mut self.victims;
        let mut dirty = false;
        for &(s, t) in dfa.transitions_for(label) {
            victims.clear();
            victims.extend(tree.occurrences((v, t)).iter().copied().filter(|&id| {
                tree.node(id)
                    .and_then(|n| {
                        let p = n.parent?;
                        let pn = tree.node(p)?;
                        Some(pn.vertex == u && pn.state == s && n.via_label == label)
                    })
                    .unwrap_or(false)
            }));
            for &id in victims.iter() {
                tree.set_subtree_ts(id, Timestamp::NEG_INFINITY);
                dirty = true;
            }
        }
        dirty
    }

    /// `ExpiryRSPQ` for a single tree: prune expired nodes, reattempt
    /// extension for expired *marked* pairs (unmarked copies were
    /// already replayed by `Unmark` when their mark was removed), then
    /// restore markings that are no longer blocked and report
    /// invalidations.
    fn expire_tree(&mut self, cx: &mut TreeCx<'_>, root: VertexId, invalidate: bool) {
        let Some((tree, idx)) = self.forest.tree_with_index(root) else {
            return;
        };
        let (work, removed_pairs, occs) = (&mut self.work, &mut self.removed, &mut self.occs);
        work.clear();
        let (dfa, wm) = (cx.query.dfa(), cx.wm);
        let stride = dfa.n_states() as u64;
        // Lines 2–3 fused: one threshold scan over the contiguous
        // timestamp column removes the candidate set P and records, per
        // node, its pair and its parent when that parent survives the
        // sweep (the re-marking pass below needs exactly this).
        tree.remove_expired_with_parents(wm, removed_pairs);
        if removed_pairs.is_empty() {
            return;
        }
        let dead_marks = tree.take_dead_marks();
        for &((v, _), _) in removed_pairs.iter() {
            idx.note_removed(root, v);
        }

        // Reconnection for expired marked pairs (lines 6–11), visiting
        // only in-edges whose label can reach state `t`. The occurrence
        // list is copied into scratch because `run_extend` mutates the
        // tree while we iterate.
        cx.budget = cx.config.rspq_extend_budget.unwrap_or(u64::MAX);
        for &(v, t) in &dead_marks {
            if tree.is_marked((v, t)) {
                continue; // reconnected by an earlier candidate's replay
            }
            let adj = cx.graph.in_view_at(v, cx.vis);
            for &(s, label) in dfa.transitions_into(t) {
                for e in adj.edges(label, wm) {
                    occs.clear();
                    occs.extend_from_slice(tree.occurrences((e.other, s)));
                    for &occ in occs.iter() {
                        let Some(occ_ts) = tree.ts_of(occ) else {
                            continue;
                        };
                        if occ_ts <= wm {
                            continue;
                        }
                        if tree.path_has(occ, v, t) || tree.is_marked((v, t)) {
                            continue;
                        }
                        work.push(ExtendItem {
                            parent_id: occ,
                            vertex: v,
                            state: t,
                            via: label,
                            edge_ts: e.ts,
                        });
                        run_extend(tree, idx, work, &mut self.path_bits, cx);
                    }
                }
            }
        }

        // A removed node counts as expired only if reconnection did not
        // bring its pair back (`EngineStats::nodes_expired`).
        cx.stats.nodes_expired += removed_pairs
            .iter()
            .filter(|&&(key, _)| !tree.has_pair(key))
            .count() as u64;

        // Lines 12–15: a permanently removed marked node may unblock its
        // parent's marking ("all siblings are in M_x" ⇒ the parent is no
        // longer a conflict predecessor).
        let dead_mark_bits = &mut self.dead_mark_bits;
        dead_mark_bits.reset();
        for &(v, t) in &dead_marks {
            dead_mark_bits.insert(pair_bit(v, t, stride));
        }
        for &(key, parent) in removed_pairs.iter() {
            if !dead_mark_bits.contains(pair_bit(key.0, key.1, stride)) || tree.is_marked(key) {
                continue;
            }
            let Some(pid) = parent else { continue };
            let Some(pn) = tree.node(pid) else { continue };
            let pkey = (pn.vertex, pn.state);
            if tree.is_marked(pkey) {
                continue;
            }
            // Conservative guard: only re-mark when the pair has this
            // single occurrence, so the mark's canonical node is
            // unambiguous.
            if tree.occurrences(pkey).len() != 1 {
                continue;
            }
            let all_marked = tree.children(pid).all(|c| {
                tree.node(c)
                    .map(|cn| tree.is_marked((cn.vertex, cn.state)))
                    .unwrap_or(true)
            });
            if all_marked {
                tree.mark(pkey, pid);
            }
        }

        // Invalidations for accepting pairs that lost all witnesses.
        if invalidate {
            let seen = &mut self.seen_bits;
            seen.reset();
            for &((v, t), _) in removed_pairs.iter() {
                if !dfa.is_accepting(t) || !seen.insert(v.0 as u64) {
                    continue;
                }
                let witnessed = dfa.accepting_states().any(|f| tree.has_pair((v, f)));
                if !witnessed {
                    let pair = ResultPair::new(root, v);
                    if cx.emitted.remove(pair) {
                        cx.stats.results_invalidated += 1;
                        cx.sink.invalidate(pair, cx.now);
                    }
                }
            }
        }

        // Per-slide compaction: once the batch removal leaves the arena
        // mostly dead, squeeze it (marks are remapped via the semantics
        // hook) so the next timestamp scan touches only live slots.
        if idx.maybe_compact(tree, cx.compact_scratch) {
            cx.stats.compactions += 1;
        }
        tree.recycle_dead_marks(dead_marks);
    }
}

/// The iterative core of Algorithm Extend (+ Unmark as a sub-procedure):
/// drains `work`, attaching nodes, detecting conflicts, and replaying
/// pruned traversals after unmarking.
///
/// Per popped item the root path is walked **once** into `path_bits`
/// (generation-stamped, so clearing is O(1)); every subsequent on-path
/// test — the re-checked caller guard, the conflict probe, and the
/// per-out-edge cycle guard — is then a single bit read instead of a
/// pointer chase up the path.
fn run_extend(
    tree: &mut SpTree,
    idx: &mut RevIndex,
    work: &mut Vec<ExtendItem>,
    path_bits: &mut GenBitSet,
    cx: &mut TreeCx<'_>,
) {
    let (dfa, containment) = (cx.query.dfa(), cx.query.containment());
    let (graph, vis, wm, now) = (cx.graph, cx.vis, cx.wm, cx.now);
    let stride = dfa.n_states() as u64;
    let root = tree.root();
    // Every pair this drain reports has the root as its source: its
    // result row is looked up on the first accepting attach, then reused.
    let mut row = cx.emitted.row(root);
    while let Some(ExtendItem {
        parent_id,
        vertex,
        state,
        via,
        edge_ts,
    }) = work.pop()
    {
        if cx.budget == 0 {
            // Safety valve (EngineConfig::rspq_extend_budget): abandon
            // the remaining traversal of this tuple.
            work.clear();
            cx.stats.budget_exhausted += 1;
            return;
        }
        cx.budget -= 1;
        cx.stats.insert_calls += 1;
        let Some(p_ts) = tree.ts_of(parent_id) else {
            continue;
        };
        if p_ts <= wm {
            continue;
        }
        // One upward walk serves every on-path test for this item: set
        // the pair bit of each ancestor, and remember the state of the
        // occurrence of `vertex` closest to the root (the "first"
        // occurrence in path order) for the conflict probe below.
        path_bits.reset();
        let mut first_state = None;
        let mut cur = parent_id;
        while let Some((v, s, parent)) = tree.step_up(cur) {
            path_bits.insert(pair_bit(v, s, stride));
            if v == vertex {
                first_state = Some(s);
            }
            match parent {
                Some(p) => cur = p,
                None => break,
            }
        }
        // Re-check the caller guards — earlier items may have changed
        // the tree.
        if path_bits.contains(pair_bit(vertex, state, stride)) || tree.is_marked((vertex, state)) {
            continue;
        }
        // Conflict detection (Extend line 2): the first occurrence of
        // `vertex` on the prefix path must suffix-contain the new state.
        if let Some(q) = first_state {
            if !containment.contains(q, state) {
                cx.stats.conflicts_detected += 1;
                cx.stats.nodes_unmarked +=
                    unmark_and_replay(tree, parent_id, work, dfa, graph, vis, wm);
                continue;
            }
        }
        // Re-visiting the tree root: containment held (checked above —
        // the root is on every prefix path), so every continuation from
        // (root, state) is mirrored by one from (root, s0) that the
        // root's own traversal explores, and the pair (root, root)
        // itself would only be witnessed by the empty path, which the
        // result semantics excludes. Prune.
        if vertex == root {
            continue;
        }
        let new_ts = edge_ts.min(p_ts);
        if new_ts <= wm {
            continue;
        }
        // Lines 5–13 of Extend: report, mark if first occurrence, attach.
        if dfa.is_accepting(state) && row.insert(vertex) {
            cx.stats.results_emitted += 1;
            cx.sink.emit(ResultPair::new(root, vertex), now);
        }
        // Extend line 11: `add_child` marks first occurrences through
        // the `Markings` semantics hook.
        let id = idx.add_child(tree, parent_id, vertex, state, via, new_ts);
        // The new node's root path is its parent's plus itself — extend
        // the bitset so each out-edge's cycle guard is one bit read.
        path_bits.insert(pair_bit(vertex, state, stride));
        // Lines 14–18: expand through valid window edges (per-state DFA
        // transitions × label-partitioned adjacency: only matching
        // edges are visited, with no per-step allocation).
        let adj = graph.out_view_at(vertex, vis);
        for &(label, r) in dfa.transitions_from(state) {
            for e in adj.edges(label, wm) {
                if !path_bits.contains(pair_bit(e.other, r, stride))
                    && !tree.is_marked((e.other, r))
                {
                    work.push(ExtendItem {
                        parent_id: id,
                        vertex: e.other,
                        state: r,
                        via: label,
                        edge_ts: e.ts,
                    });
                }
            }
        }
    }
}

/// Algorithm Unmark: walk up from the conflict predecessor, removing
/// marks while present; then replay, for every unmarked pair, the
/// traversals that were previously pruned by that mark (all valid
/// in-edges landing in the pair from live occurrences). Returns the
/// number of marks removed.
fn unmark_and_replay(
    tree: &mut SpTree,
    conflict_pred: NodeId,
    work: &mut Vec<ExtendItem>,
    dfa: &Dfa,
    graph: &WindowGraph,
    vis: Visibility,
    wm: Timestamp,
) -> u64 {
    // Phase 1 (Unmark): walk up from the conflict predecessor along the
    // parent links, removing marks while present. No path
    // materialization — the deepest-first order of the old explicit
    // path vector is exactly the upward walk.
    let mut unmarked = 0usize;
    let mut cur = conflict_pred;
    while let Some((v, s, parent)) = tree.step_up(cur) {
        if !tree.unmark((v, s)) {
            break;
        }
        unmarked += 1;
        match parent {
            Some(p) => cur = p,
            None => break,
        }
    }
    // Phase 2 (replay): revisit the same first `unmarked` ancestors.
    // The tree is only read here (pushes go to `work`), so the
    // occurrence slice is iterated in place.
    let mut cur = conflict_pred;
    for _ in 0..unmarked {
        let Some((v, t, parent)) = tree.step_up(cur) else {
            break;
        };
        let adj = graph.in_view_at(v, vis);
        for &(s, label) in dfa.transitions_into(t) {
            for e in adj.edges(label, wm) {
                for &occ in tree.occurrences((e.other, s)) {
                    let Some(occ_ts) = tree.ts_of(occ) else {
                        continue;
                    };
                    if occ_ts <= wm {
                        continue;
                    }
                    if tree.path_has(occ, v, t) {
                        continue;
                    }
                    work.push(ExtendItem {
                        parent_id: occ,
                        vertex: v,
                        state: t,
                        via: label,
                        edge_ts: e.ts,
                    });
                }
            }
        }
        match parent {
            Some(p) => cur = p,
            None => break,
        }
    }
    unmarked as u64
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

    struct Fixture {
        engine: Solo,
        verts: VertexInterner,
        labels: LabelInterner,
    }

    fn engine_for(query: &str, window: i64, slide: i64) -> Fixture {
        let mut labels = LabelInterner::new();
        let query = CompiledQuery::compile(query, &mut labels).unwrap();
        let config = EngineConfig::with_window(WindowPolicy::new(window, slide));
        Fixture {
            engine: Solo::new(query, config, PathSemantics::Simple),
            verts: VertexInterner::new(),
            labels,
        }
    }

    fn feed(f: &mut Fixture, sink: &mut CollectSink, ts: i64, a: &str, b: &str, l: &str) {
        let (va, vb) = (f.verts.intern(a), f.verts.intern(b));
        let label = f.labels.get(l).unwrap_or_else(|| panic!("label {l}"));
        f.engine
            .process(StreamTuple::insert(Timestamp(ts), va, vb, label), sink);
    }

    fn pair(f: &Fixture, a: &str, b: &str) -> ResultPair {
        ResultPair::new(f.verts.get(a).unwrap(), f.verts.get(b).unwrap())
    }

    #[test]
    fn example_4_2_conflict_discovers_simple_path() {
        // Figure 1 stream with Q1 = (follows mentions)+: the conflict at
        // vertex v must trigger Unmark so the simple path x→z→u→v→y is
        // discovered and (x, y) reported.
        let mut f = engine_for("(follows mentions)+", 1_000, 1_000);
        let mut sink = CollectSink::default();
        for (ts, a, b, l) in [
            (4, "y", "u", "mentions"),
            (6, "x", "z", "follows"),
            (9, "u", "v", "follows"),
            (11, "z", "w", "mentions"),
            (13, "x", "y", "follows"),
            (14, "z", "u", "mentions"),
            (15, "u", "x", "mentions"),
            (18, "v", "y", "mentions"),
        ] {
            feed(&mut f, &mut sink, ts, a, b, l);
        }
        assert!(
            f.engine.has_result(pair(&f, "x", "y")),
            "simple path x→z→u→v→y missed"
        );
        assert!(f.engine.stats().conflicts_detected >= 1);
        assert!(f.engine.stats().nodes_unmarked >= 1);
        f.engine.validate_delta().unwrap();
    }

    #[test]
    fn non_simple_only_witness_is_rejected() {
        // Only witness for (x, y) is x→y→u→v→y which repeats y: simple
        // path semantics must NOT report it (arbitrary semantics would).
        let mut f = engine_for("(follows mentions)+", 1_000, 1_000);
        let mut sink = CollectSink::default();
        for (ts, a, b, l) in [
            (1, "x", "y", "follows"),
            (2, "y", "u", "mentions"),
            (3, "u", "v", "follows"),
            (4, "v", "y", "mentions"),
        ] {
            feed(&mut f, &mut sink, ts, a, b, l);
        }
        assert!(f.engine.has_result(pair(&f, "x", "u")));
        assert!(
            !f.engine.has_result(pair(&f, "x", "y")),
            "non-simple witness wrongly accepted"
        );
        f.engine.validate_delta().unwrap();
    }

    #[test]
    fn simple_chain_matches() {
        let mut f = engine_for("a b c", 1_000, 1_000);
        let mut sink = CollectSink::default();
        for (ts, x, y, l) in [(1, "p", "q", "a"), (2, "q", "r", "b"), (3, "r", "s", "c")] {
            feed(&mut f, &mut sink, ts, x, y, l);
        }
        assert!(f.engine.has_result(pair(&f, "p", "s")));
        assert_eq!(sink.pairs().len(), 1);
    }

    #[test]
    fn star_query_on_cycle_reports_all_simple_pairs() {
        // a+ on a 3-cycle: all ordered pairs of *distinct* vertices are
        // connected by simple paths. The cyclic closures (p,p) repeat
        // their endpoint vertex, so simple path semantics excludes them
        // (arbitrary semantics would report them).
        let mut f = engine_for("a+", 1_000, 1_000);
        let mut sink = CollectSink::default();
        feed(&mut f, &mut sink, 1, "p", "q", "a");
        feed(&mut f, &mut sink, 2, "q", "r", "a");
        feed(&mut f, &mut sink, 3, "r", "p", "a");
        for (a, b) in [
            ("p", "q"),
            ("q", "r"),
            ("r", "p"),
            ("p", "r"),
            ("q", "p"),
            ("r", "q"),
        ] {
            assert!(f.engine.has_result(pair(&f, a, b)), "missing ({a},{b})");
        }
        for v in ["p", "q", "r"] {
            assert!(
                !f.engine.has_result(pair(&f, v, v)),
                "cyclic closure ({v},{v}) is not a simple path"
            );
        }
        f.engine.validate_delta().unwrap();
    }

    #[test]
    fn window_expiry_prunes_trees() {
        let mut f = engine_for("a+", 10, 5);
        let mut sink = CollectSink::default();
        for i in 0..30u32 {
            let a = f.verts.intern(&format!("v{i}"));
            let b = f.verts.intern(&format!("v{}", i + 1));
            let label = f.labels.get("a").unwrap();
            f.engine.process(
                StreamTuple::insert(Timestamp(i as i64), a, b, label),
                &mut sink,
            );
        }
        f.engine.expire_now(&mut sink);
        let size = f.engine.index_size();
        assert!(size.nodes < 200, "index too large: {size:?}");
        f.engine.validate_delta().unwrap();
    }

    #[test]
    fn explicit_delete_invalidates() {
        let mut f = engine_for("a b", 1_000, 1_000);
        let mut sink = CollectSink::default();
        feed(&mut f, &mut sink, 1, "p", "q", "a");
        feed(&mut f, &mut sink, 2, "q", "r", "b");
        assert!(f.engine.has_result(pair(&f, "p", "r")));
        let (p, q) = (f.verts.get("p").unwrap(), f.verts.get("q").unwrap());
        let a = f.labels.get("a").unwrap();
        f.engine
            .process(StreamTuple::delete(Timestamp(3), p, q, a), &mut sink);
        assert!(!f.engine.has_result(pair(&f, "p", "r")));
        assert_eq!(sink.invalidated().len(), 1);
        f.engine.validate_delta().unwrap();
    }

    #[test]
    fn foreign_labels_discarded() {
        let mut f = engine_for("a+", 1_000, 1_000);
        let mut sink = CollectSink::default();
        let x = f.verts.intern("x");
        let y = f.verts.intern("y");
        let mut labels = f.labels.clone();
        let z = labels.intern("zz");
        f.engine
            .process(StreamTuple::insert(Timestamp(1), x, y, z), &mut sink);
        // The router drops the tuple: seen, never routed to the group.
        assert_eq!(f.engine.multi.routing_stats(), (1, 0));
        assert_eq!(f.engine.index_size().nodes, 0);
    }

    #[test]
    fn extend_budget_aborts_conflict_blowup() {
        // A dense cyclic graph with (a b)+ generates heavy conflict
        // churn; a tiny per-tuple budget must keep processing bounded
        // and be reported in the stats.
        let mut labels = LabelInterner::new();
        let query = CompiledQuery::compile("(a b)+", &mut labels).unwrap();
        let mut config = EngineConfig::with_window(WindowPolicy::new(100_000, 100_000));
        config.rspq_extend_budget = Some(50);
        let mut engine = Solo::new(query, config, PathSemantics::Simple);
        let a = labels.get("a").unwrap();
        let b = labels.get("b").unwrap();
        let mut sink = CollectSink::default();
        let n = 12u32;
        let mut ts = 0;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    ts += 1;
                    let l = if (i + j) % 2 == 0 { a } else { b };
                    engine.process(
                        StreamTuple::insert(
                            Timestamp(ts),
                            srpq_common::VertexId(i),
                            srpq_common::VertexId(j),
                            l,
                        ),
                        &mut sink,
                    );
                }
            }
        }
        assert!(engine.stats().budget_exhausted > 0, "budget never tripped");
        // Bounded work: with 132 tuples and a 50-extend budget, the
        // total extend count stays in the thousands.
        assert!(engine.stats().insert_calls < 132 * 60);
        engine.validate_delta().unwrap();
    }

    #[test]
    fn conflict_free_query_keeps_single_occurrences() {
        // With the containment property, every pair appears at most once
        // per tree (the markings never come off).
        let mut f = engine_for("(a | b)*", 1_000, 1_000);
        let mut sink = CollectSink::default();
        let names = ["p", "q", "r", "s"];
        let mut ts = 0;
        for &x in &names {
            for &y in &names {
                if x != y {
                    ts += 1;
                    feed(
                        &mut f,
                        &mut sink,
                        ts,
                        x,
                        y,
                        if ts % 2 == 0 { "a" } else { "b" },
                    );
                }
            }
        }
        assert_eq!(f.engine.stats().conflicts_detected, 0);
        for root in f.engine.rspq_forest().roots() {
            let tree = f.engine.rspq_forest().tree(root).unwrap();
            for (_, n) in tree.iter() {
                assert_eq!(
                    tree.occurrences((n.vertex, n.state)).len(),
                    1,
                    "duplicated pair in conflict-free tree"
                );
            }
        }
        f.engine.validate_delta().unwrap();
    }
}
