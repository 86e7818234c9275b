//! Unit tests for the shared Δ forest, covering the two documented
//! invariants (unique `(vertex, state)` per [`Unique`] tree;
//! root-to-leaf timestamp monotonicity) plus subtree expiry, the
//! occurrence index, and the reverse index — ported from the formerly
//! duplicated per-engine arenas so both instantiations stay pinned.

use super::{Forest, NodeId, PairKey, RevIndex, Tree, TreeSemantics, Unique};
use crate::rspq::markings::Markings;
use srpq_common::{Label, StateId, Timestamp, VertexId};

fn v(i: u32) -> VertexId {
    VertexId(i)
}

fn s(i: u32) -> StateId {
    StateId(i)
}

fn l(i: u32) -> Label {
    Label(i)
}

/// Adds `key` under `parent` in a forest's tree through its index, as
/// the engines do.
fn attach<X: TreeSemantics>(
    idx: &mut RevIndex,
    tree: &mut Tree<X>,
    key: PairKey,
    parent: PairKey,
    via: Label,
    ts: Timestamp,
) -> NodeId {
    let p = tree.first_occurrence(parent).expect("parent exists");
    idx.add_child(tree, p, key.0, key.1, via, ts)
}

// ---------------------------------------------------------------------
// Unique (RAPQ) trees: keyed API and the one-occurrence invariant.
// ---------------------------------------------------------------------

#[test]
fn new_tree_has_immortal_root() {
    let t: Tree<Unique> = Tree::new(v(0), s(0));
    assert_eq!(t.len(), 1);
    assert!(t.is_trivial());
    assert!(!t.is_empty());
    assert_eq!(t.ts((v(0), s(0))), Some(Timestamp::INFINITY));
    assert_eq!(t.min_ts(), Timestamp::INFINITY);
    let mut expired = Vec::new();
    t.collect_expired_keys(Timestamp(i64::MAX - 1), &mut expired);
    assert!(expired.is_empty());
    t.validate().unwrap();
}

#[test]
fn add_and_subtree() {
    let mut t: Tree<Unique> = Tree::new(v(0), s(0));
    t.add((v(1), s(1)), (v(0), s(0)), l(0), Timestamp(5));
    t.add((v(2), s(2)), (v(1), s(1)), l(1), Timestamp(3));
    t.add((v(3), s(1)), (v(1), s(1)), l(0), Timestamp(4));
    assert_eq!(t.len(), 4);
    let sub = t.subtree_keys((v(1), s(1)));
    assert_eq!(sub.len(), 3);
    assert_eq!(sub[0], (v(1), s(1)));
    t.validate().unwrap();
}

#[test]
fn timestamp_monotonicity_enforced_by_validate() {
    let mut t: Tree<Unique> = Tree::new(v(0), s(0));
    t.add((v(1), s(1)), (v(0), s(0)), l(0), Timestamp(5));
    // Deliberately violate invariant 2: child fresher than parent.
    t.add((v(2), s(2)), (v(1), s(1)), l(1), Timestamp(9));
    let err = t.validate().unwrap_err();
    assert!(err.contains("timestamp inversion"), "{err}");
}

#[test]
fn occurrence_uniqueness_enforced_by_validate() {
    // Bypass the keyed API to materialize a duplicate pair, as a bug in
    // the engine would: validate must reject it (Lemma 1, invariant 2).
    let mut t: Tree<Unique> = Tree::new(v(0), s(0));
    let root = t.root_id();
    t.add_child(root, v(1), s(1), l(0), Timestamp(5));
    // Debug builds trip the `debug_assert` in `Unique::on_add` (eager
    // enforcement); release builds let the duplicate land and validate
    // must flag it. Libtest captures the panic output per-test, so no
    // hook manipulation is needed (or safe — hooks are process-global).
    let dup = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        t.add_child(root, v(1), s(1), l(0), Timestamp(4));
    }));
    assert_eq!(dup.is_ok(), !cfg!(debug_assertions));
    if dup.is_ok() {
        let err = t.validate().unwrap_err();
        assert!(err.contains("occurs 2 times"), "{err}");
    }
}

#[test]
fn reparent_moves_subtree() {
    let mut t: Tree<Unique> = Tree::new(v(0), s(0));
    t.add((v(1), s(1)), (v(0), s(0)), l(0), Timestamp(2));
    t.add((v(2), s(1)), (v(0), s(0)), l(0), Timestamp(8));
    t.add((v(3), s(2)), (v(1), s(1)), l(1), Timestamp(2));
    // (v3,s2) refreshes under (v2,s1).
    t.reparent_key((v(3), s(2)), (v(2), s(1)), l(1), Timestamp(7));
    assert_eq!(t.parent_key((v(3), s(2))), Some((v(2), s(1))));
    t.validate().unwrap();
    // A refresh never raises the expiry bound ((v1,s1)@2 still holds
    // it); the fused sweep makes it exact over the survivors.
    assert_eq!(t.min_ts(), Timestamp(2));
    let mut expired = Vec::new();
    t.remove_expired_keys(Timestamp(2), &mut expired);
    assert_eq!(expired, vec![(v(1), s(1))]);
    assert_eq!(t.min_ts(), Timestamp(7));
    t.validate().unwrap();
}

#[test]
fn reparent_same_parent_updates_ts_only() {
    let mut t: Tree<Unique> = Tree::new(v(0), s(0));
    t.add((v(1), s(1)), (v(0), s(0)), l(0), Timestamp(2));
    t.reparent_key((v(1), s(1)), (v(0), s(0)), l(0), Timestamp(9));
    assert_eq!(t.ts((v(1), s(1))), Some(Timestamp(9)));
    assert_eq!(t.children(t.root_id()).count(), 1);
    t.validate().unwrap();
}

#[test]
fn expired_set_is_downward_closed_and_removable() {
    // Subtree expiry: under timestamp monotonicity the candidate set
    // {n | n.ts <= wm} is a union of whole subtrees, so remove_all can
    // prune it wholesale and leave a consistent tree.
    let mut t: Tree<Unique> = Tree::new(v(0), s(0));
    t.add((v(1), s(1)), (v(0), s(0)), l(0), Timestamp(2));
    t.add((v(2), s(2)), (v(1), s(1)), l(1), Timestamp(2));
    t.add((v(3), s(1)), (v(0), s(0)), l(0), Timestamp(9));
    let mut expired = Vec::new();
    t.collect_expired_keys(Timestamp(5), &mut expired);
    assert_eq!(expired.len(), 2);
    // Downward-closed: every live descendant of an expired node is in
    // the set too.
    for &key in &expired {
        for sub in t.subtree_keys(key) {
            assert!(expired.contains(&sub), "{sub:?} missing from expiry set");
        }
    }
    t.remove_all_keys(&expired);
    assert_eq!(t.len(), 2);
    assert!(t.contains((v(3), s(1))));
    assert!(!t.contains((v(1), s(1))));
    t.validate().unwrap();
}

#[test]
fn set_subtree_ts_marks_whole_subtree() {
    let mut t: Tree<Unique> = Tree::new(v(0), s(0));
    t.add((v(1), s(1)), (v(0), s(0)), l(0), Timestamp(5));
    t.add((v(2), s(2)), (v(1), s(1)), l(1), Timestamp(5));
    t.add((v(3), s(1)), (v(0), s(0)), l(0), Timestamp(5));
    t.set_subtree_ts_key((v(1), s(1)), Timestamp::NEG_INFINITY);
    assert_eq!(t.ts((v(1), s(1))), Some(Timestamp::NEG_INFINITY));
    assert_eq!(t.ts((v(2), s(2))), Some(Timestamp::NEG_INFINITY));
    assert_eq!(t.ts((v(3), s(1))), Some(Timestamp(5)));
    // Delete's stamp lowers the expiry bound, so the sweep that
    // follows it visits this tree at any watermark.
    assert_eq!(t.min_ts(), Timestamp::NEG_INFINITY);
    t.validate().unwrap();
}

// ---------------------------------------------------------------------
// Markings (RSPQ) trees: multiple occurrences, marks, path queries.
// ---------------------------------------------------------------------

#[test]
fn root_is_marked() {
    let t: Tree<Markings> = Tree::new(v(0), s(0));
    assert!(t.is_marked((v(0), s(0))));
    assert_eq!(t.len(), 1);
    t.validate().unwrap();
}

#[test]
fn duplicate_pairs_coexist() {
    let mut t: Tree<Markings> = Tree::new(v(0), s(0));
    let a = t.add_child(t.root_id(), v(1), s(1), l(0), Timestamp(5));
    let b = t.add_child(t.root_id(), v(2), s(1), l(0), Timestamp(5));
    // Second copy of (1, s1) under a different branch.
    let a2 = t.add_child(b, v(1), s(1), l(1), Timestamp(4));
    assert_eq!(t.occurrences((v(1), s(1))), &[a, a2]);
    assert!(t.has_pair((v(1), s(1))));
    // The first occurrence was marked; the duplicate did not move it.
    assert!(t.is_marked((v(1), s(1))));
    t.validate().unwrap();
}

#[test]
fn first_state_on_path_picks_nearest_root() {
    let mut t: Tree<Markings> = Tree::new(v(0), s(0));
    let a = t.add_child(t.root_id(), v(1), s(1), l(0), Timestamp(5));
    let b = t.add_child(a, v(2), s(2), l(1), Timestamp(5));
    let c = t.add_child(b, v(1), s(2), l(0), Timestamp(5));
    assert_eq!(t.first_state_on_path(c, v(1)), Some(s(1)));
    assert_eq!(t.first_state_on_path(c, v(0)), Some(s(0)));
    assert_eq!(t.first_state_on_path(c, v(9)), None);
    assert!(t.path_has(c, v(1), s(2)));
    assert!(t.path_has(c, v(1), s(1)));
    assert!(!t.path_has(b, v(1), s(2)));
}

#[test]
fn remove_all_cleans_indexes_and_reports_dead_marks() {
    let mut t: Tree<Markings> = Tree::new(v(0), s(0));
    let a = t.add_child(t.root_id(), v(1), s(1), l(0), Timestamp(2));
    let b = t.add_child(a, v(2), s(2), l(1), Timestamp(2));
    assert!(t.is_marked((v(1), s(1))));
    assert!(t.is_marked((v(2), s(2))));
    t.remove_all(&[a, b]);
    let dead = t.take_dead_marks();
    assert_eq!(dead.len(), 2);
    assert_eq!(t.len(), 1);
    assert!(!t.has_pair((v(1), s(1))));
    assert!(!t.is_marked((v(2), s(2))));
    // Drained: a second take returns nothing.
    assert!(t.take_dead_marks().is_empty());
    t.validate().unwrap();
}

#[test]
fn arena_reuses_free_slots() {
    let mut t: Tree<Markings> = Tree::new(v(0), s(0));
    let a = t.add_child(t.root_id(), v(1), s(1), l(0), Timestamp(2));
    t.remove_all(&[a]);
    let b = t.add_child(t.root_id(), v(2), s(1), l(0), Timestamp(3));
    assert_eq!(a, b, "slot not reused");
    t.validate().unwrap();
}

#[test]
fn collect_expired_and_subtree_ts() {
    let mut t: Tree<Markings> = Tree::new(v(0), s(0));
    let a = t.add_child(t.root_id(), v(1), s(1), l(0), Timestamp(10));
    let b = t.add_child(a, v(2), s(2), l(1), Timestamp(5));
    let mut exp = Vec::new();
    t.collect_expired(Timestamp(5), &mut exp);
    assert_eq!(exp, vec![b]);
    t.set_subtree_ts(a, Timestamp::NEG_INFINITY);
    t.collect_expired(Timestamp(5), &mut exp);
    assert_eq!(exp, vec![a, b], "ascending slot order, scratch re-cleared");
}

#[test]
fn path_keys_root_first() {
    let mut t: Tree<Markings> = Tree::new(v(0), s(0));
    let a = t.add_child(t.root_id(), v(1), s(1), l(0), Timestamp(2));
    let b = t.add_child(a, v(2), s(2), l(1), Timestamp(2));
    assert_eq!(
        t.path_keys(b),
        vec![(v(0), s(0)), (v(1), s(1)), (v(2), s(2))]
    );
    assert_eq!(t.path_ids(b), vec![t.root_id(), a, b]);
}

#[test]
fn mark_dies_only_with_its_node() {
    let mut t: Tree<Markings> = Tree::new(v(0), s(0));
    let a = t.add_child(t.root_id(), v(1), s(1), l(0), Timestamp(2));
    let b = t.add_child(t.root_id(), v(3), s(3), l(0), Timestamp(2));
    let _a2 = t.add_child(b, v(1), s(1), l(1), Timestamp(2));
    assert_eq!(t.ext().marked_node((v(1), s(1))), Some(a));
    // Removing the *other* occurrence keeps the mark.
    let ids = t.subtree_ids(b);
    t.remove_all(&ids);
    let dead = t.take_dead_marks();
    assert_eq!(dead, vec![(v(3), s(3))]);
    assert!(t.is_marked((v(1), s(1))));
    t.validate().unwrap();
}

#[test]
fn unmark_then_fresh_rediscovery_remarks() {
    let mut t: Tree<Markings> = Tree::new(v(0), s(0));
    let a = t.add_child(t.root_id(), v(1), s(1), l(0), Timestamp(2));
    assert!(t.unmark((v(1), s(1))));
    assert!(!t.unmark((v(1), s(1))));
    // Another occurrence while one is live: stays unmarked.
    let a2 = t.add_child(t.root_id(), v(1), s(1), l(1), Timestamp(3));
    assert!(!t.is_marked((v(1), s(1))));
    // All occurrences gone, then rediscovered: marked afresh.
    t.remove_all(&[a, a2]);
    t.take_dead_marks();
    let a3 = t.add_child(t.root_id(), v(1), s(1), l(0), Timestamp(4));
    assert_eq!(t.ext().marked_node((v(1), s(1))), Some(a3));
    t.validate().unwrap();
}

// ---------------------------------------------------------------------
// Forest + reverse index, over both semantics.
// ---------------------------------------------------------------------

#[test]
fn forest_reverse_index_tracks_occurrences() {
    let mut d: Forest<Unique> = Forest::new();
    d.ensure_tree(v(0), s(0));
    {
        let (tree, idx) = d.tree_with_index(v(0)).unwrap();
        attach(idx, tree, (v(1), s(1)), (v(0), s(0)), l(0), Timestamp(1));
        attach(idx, tree, (v(1), s(2)), (v(1), s(1)), l(1), Timestamp(1));
    }
    assert_eq!(d.trees_containing(v(1)), vec![v(0)]);
    assert_eq!(d.n_nodes(), 3);
    d.validate().unwrap();

    // Removing one of two occurrences keeps the reverse entry.
    {
        let (tree, idx) = d.tree_with_index(v(0)).unwrap();
        tree.remove_all_keys(&[(v(1), s(2))]);
        idx.note_removed(v(0), v(1));
    }
    assert_eq!(d.trees_containing(v(1)), vec![v(0)]);
    d.validate().unwrap();

    {
        let (tree, idx) = d.tree_with_index(v(0)).unwrap();
        tree.remove_all_keys(&[(v(1), s(1))]);
        idx.note_removed(v(0), v(1));
    }
    assert!(d.trees_containing(v(1)).is_empty());
    d.validate().unwrap();
}

#[test]
fn drop_if_trivial() {
    let mut d: Forest<Markings> = Forest::new();
    d.ensure_tree(v(5), s(0));
    assert_eq!(d.n_trees(), 1);
    assert!(d.drop_if_trivial(v(5)));
    assert_eq!(d.n_trees(), 0);
    assert_eq!(d.n_nodes(), 0);
    assert!(!d.drop_if_trivial(v(5)));
    d.validate().unwrap();
}

#[test]
fn ensure_tree_is_idempotent() {
    let mut d: Forest<Unique> = Forest::new();
    d.ensure_tree(v(1), s(0));
    d.ensure_tree(v(1), s(0));
    assert_eq!(d.n_trees(), 1);
    assert_eq!(d.n_nodes(), 1);
}

// ---------------------------------------------------------------------
// The hooks themselves: a recording semantics proves the contract.
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct Recorder {
    events: Vec<(char, PairKey, NodeId, bool)>,
}

impl TreeSemantics for Recorder {
    fn on_add(&mut self, key: PairKey, id: NodeId, first: bool) {
        self.events.push(('+', key, id, first));
    }

    fn on_remove(&mut self, key: PairKey, id: NodeId) {
        self.events.push(('-', key, id, false));
    }
}

// ---------------------------------------------------------------------
// Snapshots: faithful round trips for Full checkpoints.
// ---------------------------------------------------------------------

#[test]
fn unique_forest_snapshot_round_trips() {
    let mut f: Forest<Unique> = Forest::new();
    f.ensure_tree(v(0), s(0));
    let (t, idx) = f.tree_with_index(v(0)).unwrap();
    attach(idx, t, (v(1), s(1)), (v(0), s(0)), l(0), Timestamp(5));
    attach(idx, t, (v(2), s(2)), (v(1), s(1)), l(1), Timestamp(4));
    attach(idx, t, (v(3), s(1)), (v(0), s(0)), l(0), Timestamp(7));
    // Remove one node so the free list is non-empty.
    t.remove_all_keys(&[(v(2), s(2))]);
    idx.note_removed(v(0), v(2));
    f.ensure_tree(v(5), s(0));
    f.validate().unwrap();

    let restored = Forest::<Unique>::from_snapshot(f.to_snapshot()).unwrap();
    assert_eq!(restored.n_trees(), f.n_trees());
    assert_eq!(restored.n_nodes(), f.n_nodes());
    assert_eq!(restored.to_snapshot(), f.to_snapshot());
    let rt = restored.tree(v(0)).unwrap();
    assert_eq!(rt.ts((v(1), s(1))), Some(Timestamp(5)));
    assert_eq!(rt.parent_key((v(3), s(1))), Some((v(0), s(0))));
    // The freed arena slot is reused identically on both sides: slot
    // assignment is part of the faithful contract.
    let mut f2 = f;
    let mut r2 = restored;
    f2.tree_mut(v(0))
        .unwrap()
        .add((v(9), s(2)), (v(1), s(1)), l(1), Timestamp(6));
    r2.tree_mut(v(0))
        .unwrap()
        .add((v(9), s(2)), (v(1), s(1)), l(1), Timestamp(6));
    assert_eq!(
        f2.tree(v(0)).unwrap().first_occurrence((v(9), s(2))),
        r2.tree(v(0)).unwrap().first_occurrence((v(9), s(2)))
    );
}

#[test]
fn markings_snapshot_preserves_marks_and_duplicates() {
    let mut t: Tree<Markings> = Tree::new(v(0), s(0));
    let a = t.add_child(t.root_id(), v(1), s(1), l(0), Timestamp(5));
    let b = t.add_child(a, v(2), s(1), l(1), Timestamp(4));
    // A duplicate occurrence of (v2, s1) plus an unmark, as conflict
    // replay would produce.
    let b2 = t.add_child(t.root_id(), v(2), s(1), l(0), Timestamp(6));
    t.unmark((v(1), s(1)));
    t.validate().unwrap();
    let snap = t.to_snapshot();
    let restored = Tree::<Markings>::from_snapshot(snap.clone()).unwrap();
    assert_eq!(restored.to_snapshot(), snap);
    assert_eq!(restored.occurrences((v(2), s(1))), &[b, b2]);
    assert!(!restored.is_marked((v(1), s(1))));
    assert!(restored.is_marked((v(2), s(1))));
    assert_eq!(restored.n_marked(), t.n_marked());
}

#[test]
fn corrupt_snapshots_are_rejected() {
    let mut t: Tree<Unique> = Tree::new(v(0), s(0));
    t.add((v(1), s(1)), (v(0), s(0)), l(0), Timestamp(5));
    let good = t.to_snapshot();

    let mut bad = good.clone();
    bad.nodes[1].parent = Some(99); // dangling parent
    assert!(Tree::<Unique>::from_snapshot(bad).is_err());

    let mut bad = good.clone();
    bad.free.push(1); // "free" slot that is live
    assert!(Tree::<Unique>::from_snapshot(bad).is_err());

    let mut bad = good.clone();
    bad.occurrences.clear(); // index out of sync
    assert!(Tree::<Unique>::from_snapshot(bad).is_err());

    let mut bad = good;
    bad.nodes[0].ts = Timestamp(0); // root below its child: inversion
    assert!(Tree::<Unique>::from_snapshot(bad).is_err());
}

// ---------------------------------------------------------------------
// Compaction: remap consistency, occurrence agreement, determinism.
// ---------------------------------------------------------------------

#[test]
fn small_arenas_never_compact() {
    let mut t: Tree<Markings> = Tree::new(v(0), s(0));
    let a = t.add_child(t.root_id(), v(1), s(1), l(0), Timestamp(2));
    t.remove_all(&[a]);
    let mut remap = Vec::new();
    assert!(!t.maybe_compact(&mut remap), "below the capacity floor");
}

#[test]
fn compaction_squeezes_arena_and_remaps_ids() {
    let mut t: Tree<Markings> = Tree::new(v(0), s(0));
    let ids: Vec<NodeId> = (0..100u32)
        .map(|i| t.add_child(t.root_id(), v(i + 1), s(1), l(0), Timestamp(10)))
        .collect();
    // Kill the first 90 children, keep the last 10.
    t.remove_all(&ids[..90]);
    t.take_dead_marks();
    let before_cap = t.capacity();
    assert!(before_cap >= 64);
    let mut remap = Vec::new();
    assert!(t.maybe_compact(&mut remap));
    assert_eq!(t.capacity(), t.len(), "arena not squeezed to live size");
    t.validate().unwrap();
    // Every survivor is still reachable under its key, with timestamp,
    // parent, and mark intact (occurrence-index agreement is part of
    // validate()).
    for i in 90..100u32 {
        let key = (v(i + 1), s(1));
        let id = t.first_occurrence(key).expect("survivor lost");
        assert_eq!(t.ts_of(id), Some(Timestamp(10)));
        assert_eq!(t.node(id).unwrap().parent, Some(t.root_id()));
        assert!(t.is_marked(key));
        assert_eq!(t.ext().marked_node(key), Some(id), "mark not remapped");
    }
}

#[test]
fn compaction_is_deterministic_and_snapshot_round_trips() {
    let build = || {
        let mut t: Tree<Markings> = Tree::new(v(0), s(0));
        let mut prev = t.root_id();
        for i in 0..80u32 {
            let id = t.add_child(prev, v(i + 1), s(i % 3), l(0), Timestamp(100 - i as i64));
            if i % 2 == 0 {
                prev = id;
            }
        }
        // Expire the deep (low-timestamp) tail so the survivors sit in
        // scattered slots, then compact.
        let mut exp = Vec::new();
        t.collect_expired(Timestamp(80), &mut exp);
        t.remove_all(&exp);
        t.take_dead_marks();
        let mut remap = Vec::new();
        assert!(t.maybe_compact(&mut remap), "fixture must trigger");
        t
    };
    let t1 = build();
    let t2 = build();
    assert_eq!(
        t1.to_snapshot(),
        t2.to_snapshot(),
        "compaction depends on more than slot liveness"
    );
    let snap = t1.to_snapshot();
    let restored = Tree::<Markings>::from_snapshot(snap.clone()).unwrap();
    assert_eq!(restored.to_snapshot(), snap);
    restored.validate().unwrap();
}

#[test]
fn randomized_sweeps_stay_valid_across_compactions() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    for seed in 0..4u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut t: Tree<Markings> = Tree::new(v(0), s(0));
        let mut remap = Vec::new();
        let mut exp = Vec::new();
        let mut compactions = 0u32;
        for round in 0..40 {
            // Insert a burst under random live parents, respecting
            // timestamp monotonicity (child ts ≤ parent ts).
            let mut live: Vec<NodeId> = t.iter().map(|(id, _)| id).collect();
            for _ in 0..rng.gen_range(5..40) {
                let pid = live[rng.gen_range(0..live.len())];
                let pts = t.ts_of(pid).unwrap();
                let ts = Timestamp(rng.gen_range(0..=pts.0.min(1_000)));
                let id = t.add_child(
                    pid,
                    v(rng.gen_range(1..50)),
                    s(rng.gen_range(0..4)),
                    l(0),
                    ts,
                );
                live.push(id);
            }
            // Expire a random watermark (the candidate set is downward
            // closed under monotonicity), then maybe compact.
            let wm = Timestamp(rng.gen_range(0..800));
            t.collect_expired(wm, &mut exp);
            t.remove_all(&exp);
            t.take_dead_marks();
            if t.maybe_compact(&mut remap) {
                compactions += 1;
            }
            t.validate()
                .unwrap_or_else(|e| panic!("seed {seed}, round {round}: {e}"));
        }
        assert!(compactions > 0, "seed {seed}: compaction never triggered");
    }
}

#[test]
fn semantics_hooks_observe_every_mutation() {
    let mut t: Tree<Recorder> = Tree::new(v(0), s(0));
    let a = t.add_child(t.root_id(), v(1), s(1), l(0), Timestamp(2));
    let a2 = t.add_child(t.root_id(), v(1), s(1), l(1), Timestamp(3));
    t.remove_all(&[a, a2]);
    assert_eq!(
        t.ext().events,
        vec![
            ('+', (v(0), s(0)), 0, true),
            ('+', (v(1), s(1)), a, true),
            ('+', (v(1), s(1)), a2, false),
            ('-', (v(1), s(1)), a, false),
            ('-', (v(1), s(1)), a2, false),
        ]
    );
}
