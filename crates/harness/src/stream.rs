//! The one seeded stream generator.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use srpq_common::{Label, StreamTuple, Timestamp, VertexId};

/// What [`random_stream`] draws.
#[derive(Debug, Clone, Copy)]
pub struct StreamSpec {
    /// Tuples in the stream.
    pub len: usize,
    /// Vertices `0..vertices`.
    pub vertices: u32,
    /// Labels `0..labels` (`a`, `b`, … under [`crate::labels`]).
    pub labels: u32,
    /// Chance that a tuple explicitly deletes an earlier fresh edge.
    pub delete: f64,
    /// Chance that a tuple re-inserts an earlier fresh edge at the
    /// current time (a refresh).
    pub refresh: f64,
    /// The RNG seed.
    pub seed: u64,
}

impl StreamSpec {
    /// `len` fresh edges over `vertices` vertices and `labels` labels:
    /// no deletions, no refreshes.
    pub fn new(len: usize, vertices: u32, labels: u32, seed: u64) -> StreamSpec {
        let (delete, refresh) = (0.0, 0.0);
        StreamSpec {
            len,
            vertices,
            labels,
            delete,
            refresh,
            seed,
        }
    }

    /// This spec with deletion chance `p`.
    pub fn deletes(self, p: f64) -> StreamSpec {
        StreamSpec { delete: p, ..self }
    }

    /// This spec with refresh chance `p`.
    pub fn refreshes(self, p: f64) -> StreamSpec {
        StreamSpec { refresh: p, ..self }
    }
}

/// A seeded stream whose timestamps start at 0 and advance by 0–2 per
/// tuple (non-negative and non-decreasing, so the WAL admits it). Each
/// tuple is a deletion (chance `delete`), else a refresh (chance
/// `refresh`) — both pick uniformly among the fresh edges so far and
/// need at least one — else a fresh edge: a random source, a random
/// other destination and a random label. A chance of 0 draws nothing,
/// so it leaves the rest of the stream as it was.
pub fn random_stream(spec: &StreamSpec) -> Vec<StreamTuple> {
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let mut ts = 0i64;
    let mut fresh: Vec<StreamTuple> = Vec::new();
    let mut out = Vec::with_capacity(spec.len);
    for _ in 0..spec.len {
        ts += rng.gen_range(0..=2i64);
        let at = Timestamp(ts);
        let mut roll = |p: f64| !fresh.is_empty() && p > 0.0 && rng.gen_bool(p);
        let delete = roll(spec.delete);
        if delete || roll(spec.refresh) {
            let e = fresh[rng.gen_range(0..fresh.len())];
            let make = if delete {
                StreamTuple::delete
            } else {
                StreamTuple::insert
            };
            out.push(make(at, e.edge.src, e.edge.dst, e.label));
            continue;
        }
        let src = VertexId(rng.gen_range(0..spec.vertices));
        let mut dst = VertexId(rng.gen_range(0..spec.vertices));
        if dst == src {
            dst = VertexId((dst.0 + 1) % spec.vertices);
        }
        let t = StreamTuple::insert(at, src, dst, Label(rng.gen_range(0..spec.labels)));
        fresh.push(t);
        out.push(t);
    }
    out
}
