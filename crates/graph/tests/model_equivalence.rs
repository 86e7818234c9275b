//! Seeded randomized equivalence: [`WindowGraph`] against a naive
//! reference model (`HashMap<(u, v, l) → ts>`) through mixed
//! insert / refresh / delete / purge sequences.
//!
//! The model is the store's contract stripped of every data structure:
//! the window content is a map from labeled edges to their most recent
//! insertion timestamp; purge drops entries `<= watermark`. After every
//! few operations the full observable surface is compared — edge
//! counts, the maintained vertex count, point lookups, label-partitioned
//! traversal in both directions under a random watermark, and the
//! sorted snapshot export. After every operation the store's adjacency
//! entries must be exactly the model's vertices with a stored out- and
//! in-edge: an entry outliving its vertex's last edge is a leak.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use srpq_graph::WindowGraph;
use std::collections::HashMap;

use srpq_common::{Label as L, Timestamp as T, VertexId as V};

#[derive(Default)]
struct Model {
    edges: HashMap<(V, V, L), T>,
}

impl Model {
    fn insert(&mut self, u: V, v: V, l: L, ts: T) -> bool {
        self.edges.insert((u, v, l), ts).is_none()
    }

    fn remove(&mut self, u: V, v: V, l: L) -> Option<T> {
        self.edges.remove(&(u, v, l))
    }

    fn purge(&mut self, wm: T) -> usize {
        let before = self.edges.len();
        self.edges.retain(|_, &mut ts| ts > wm);
        before - self.edges.len()
    }

    fn n_vertices(&self) -> usize {
        let mut vs: Vec<V> = Vec::new();
        for &(u, v, _) in self.edges.keys() {
            vs.push(u);
            vs.push(v);
        }
        vs.sort_unstable();
        vs.dedup();
        vs.len()
    }

    /// Distinct edge sources and distinct edge targets.
    fn endpoints(&self) -> (usize, usize) {
        let distinct = |end: fn(&(V, V, L)) -> V| {
            let mut vs: Vec<V> = self.edges.keys().map(end).collect();
            vs.sort_unstable();
            vs.dedup();
            vs.len()
        };
        (distinct(|e| e.0), distinct(|e| e.1))
    }

    fn out_of(&self, u: V, l: L, wm: T) -> Vec<(V, T)> {
        let mut out: Vec<(V, T)> = self
            .edges
            .iter()
            .filter(|&(&(eu, _, el), &ts)| eu == u && el == l && ts > wm)
            .map(|(&(_, ev, _), &ts)| (ev, ts))
            .collect();
        out.sort_unstable();
        out
    }

    fn in_of(&self, v: V, l: L, wm: T) -> Vec<(V, T)> {
        let mut out: Vec<(V, T)> = self
            .edges
            .iter()
            .filter(|&(&(_, ev, el), &ts)| ev == v && el == l && ts > wm)
            .map(|(&(eu, _, _), &ts)| (eu, ts))
            .collect();
        out.sort_unstable();
        out
    }

    fn snapshot(&self, wm: T) -> Vec<(V, V, L, T)> {
        let mut out: Vec<(V, V, L, T)> = self
            .edges
            .iter()
            .filter(|&(_, &ts)| ts > wm)
            .map(|(&(u, v, l), &ts)| (u, v, l, ts))
            .collect();
        out.sort_unstable();
        out
    }
}

fn check_full(g: &WindowGraph, m: &Model, wm: T, n_vertices: u32, n_labels: u32, ctx: &str) {
    assert_eq!(g.n_edges(), m.edges.len(), "n_edges {ctx}");
    assert_eq!(g.n_vertices(), m.n_vertices(), "n_vertices {ctx}");
    assert_eq!(g.edges(wm), m.snapshot(wm), "snapshot {ctx}");
    for u in 0..n_vertices {
        let u = V(u);
        for l in 0..n_labels {
            let l = L(l);
            let mut got: Vec<(V, T)> = g.out_edges(u, l, wm).map(|e| (e.other, e.ts)).collect();
            got.sort_unstable();
            assert_eq!(got, m.out_of(u, l, wm), "out({u}, {l}) {ctx}");
            let mut got: Vec<(V, T)> = g.in_edges(u, l, wm).map(|e| (e.other, e.ts)).collect();
            got.sort_unstable();
            assert_eq!(got, m.in_of(u, l, wm), "in({u}, {l}) {ctx}");
        }
        let any = g.out_edges_any(u, wm).count();
        let expect: usize = (0..n_labels).map(|l| m.out_of(u, L(l), wm).len()).sum();
        assert_eq!(any, expect, "out_any({u}) {ctx}");
    }
}

#[test]
fn random_ops_match_reference_model() {
    const N_VERTICES: u32 = 8;
    const N_LABELS: u32 = 3;
    for seed in 0..12u64 {
        let mut rng = SmallRng::seed_from_u64(0x5eed ^ seed);
        let mut g = WindowGraph::new();
        let mut m = Model::default();
        let mut ts = 0i64;
        let mut max_purged = i64::MIN;
        for step in 0..600 {
            ts += rng.gen_range(0..=2i64);
            match rng.gen_range(0..10u32) {
                // Insert or refresh (refresh biased onto live edges).
                0..=5 => {
                    let (u, v, l) = if !m.edges.is_empty() && rng.gen_bool(0.4) {
                        let keys: Vec<_> = m.edges.keys().copied().collect();
                        keys[rng.gen_range(0..keys.len())]
                    } else {
                        (
                            V(rng.gen_range(0..N_VERTICES)),
                            V(rng.gen_range(0..N_VERTICES)),
                            L(rng.gen_range(0..N_LABELS)),
                        )
                    };
                    // Timestamps of live edges must never regress below a
                    // past purge watermark lie; monotone ts guarantees it.
                    let fresh_g = g.insert(u, v, l, T(ts));
                    let fresh_m = m.insert(u, v, l, T(ts));
                    assert_eq!(fresh_g, fresh_m, "insert freshness seed {seed} step {step}");
                }
                // Explicit delete (half the time of a live edge).
                6..=7 => {
                    let (u, v, l) = if !m.edges.is_empty() && rng.gen_bool(0.7) {
                        let keys: Vec<_> = m.edges.keys().copied().collect();
                        keys[rng.gen_range(0..keys.len())]
                    } else {
                        (
                            V(rng.gen_range(0..N_VERTICES)),
                            V(rng.gen_range(0..N_VERTICES)),
                            L(rng.gen_range(0..N_LABELS)),
                        )
                    };
                    assert_eq!(
                        g.remove(u, v, l),
                        m.remove(u, v, l),
                        "remove seed {seed} step {step}"
                    );
                }
                // Purge at a random recent watermark.
                _ => {
                    let wm = ts - rng.gen_range(0..30i64);
                    let removed_g = g.purge_expired(T(wm));
                    let removed_m = m.purge(T(wm));
                    assert_eq!(removed_g, removed_m, "purge count seed {seed} step {step}");
                    max_purged = max_purged.max(wm);
                }
            }
            assert_eq!(g.n_edges(), m.edges.len(), "seed {seed} step {step}");
            assert_eq!(g.n_vertices(), m.n_vertices(), "seed {seed} step {step}");
            assert_eq!(
                g.adjacency_entries(),
                m.endpoints(),
                "adjacency entries seed {seed} step {step}"
            );
            if step % 29 == 0 {
                let wm = T(ts - rng.gen_range(0..40i64));
                check_full(
                    &g,
                    &m,
                    wm,
                    N_VERTICES,
                    N_LABELS,
                    &format!("seed {seed} step {step}"),
                );
            }
        }
        // Final: everything visible, then everything purged.
        check_full(
            &g,
            &m,
            T(i64::MIN),
            N_VERTICES,
            N_LABELS,
            &format!("seed {seed} final"),
        );
        let removed_g = g.purge_expired(T(i64::MAX - 1));
        let removed_m = m.purge(T(i64::MAX - 1));
        assert_eq!(removed_g, removed_m, "seed {seed} final purge");
        assert_eq!(g.n_edges(), 0);
        assert_eq!(g.n_vertices(), 0);
        assert_eq!(g.adjacency_entries(), (0, 0));
    }
}
