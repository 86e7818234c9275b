//! The reported-result set of one evaluation group.
//!
//! Persistent evaluation reports each `(x, y)` pair once, so a group
//! keeps every pair it has ever reported, minus invalidations, and
//! probes that set on every accepting-node attach. A Δ tree's root is
//! the source of every pair the tree reports, so [`ResultSet`] stores
//! the pairs as *rows* keyed by source: an extend drain looks its root's
//! row up once ([`ResultSet::row`]) and then tests each destination
//! against a row already in cache.
//!
//! A row's representation follows its length:
//!
//! - up to [`INLINE`] destinations sit in the map entry itself, which
//!   holds all of most sources' results on a sparse graph;
//! - a longer row moves to a sorted heap buffer that grows by a
//!   quarter at a time;
//! - which becomes a [`DenseBitSet`] once growing the buffer would make
//!   it as large as a bitset over `0..=max_dst`. A bitset row is never
//!   demoted.
//!
//! Rows are kept in order, so walking the sources in order yields the
//! pairs sorted by `(src, dst)` — the order checkpoints serialize —
//! without sorting the pairs themselves.

use crate::bitset::DenseBitSet;
use srpq_common::{table_bytes, FxHashMap, ResultPair, VertexId};
use std::mem::size_of;

/// Destinations a row holds in its map entry (the most that fit beside
/// the variant tag in the 24 bytes the heap variants need).
const INLINE: usize = 5;

/// A set of result pairs, stored as one row of destinations per source.
#[derive(Default)]
pub(crate) struct ResultSet {
    rows: FxHashMap<VertexId, Row>,
    /// Pairs in the set.
    len: usize,
    /// Heap bytes the rows hold outside the map.
    row_bytes: usize,
}

/// One source's destinations. A row in the map is never empty.
enum Row {
    /// Ascending, in `dsts[..n]`.
    Inline {
        n: u8,
        dsts: [u32; INLINE],
    },
    /// Ascending, in `buf[..len]`; `buf.len()` is the capacity.
    Sorted {
        len: u32,
        buf: Box<[u32]>,
    },
    Bits(Box<DenseBitSet>),
}

/// The row a source starts with, for the instant before its first
/// insert.
const EMPTY: Row = Row::Inline {
    n: 0,
    dsts: [0; INLINE],
};

/// Resident bytes of a bitset over `0..=max`.
fn bitset_bytes(max: u32) -> usize {
    ((max >> 6) as usize + 1) * size_of::<u64>()
}

impl Row {
    /// A sorted row's destinations.
    fn sorted(&self) -> &[u32] {
        match self {
            Row::Inline { n, dsts } => &dsts[..*n as usize],
            Row::Sorted { len, buf } => &buf[..*len as usize],
            Row::Bits(_) => unreachable!("a bitset row is not sorted"),
        }
    }

    /// A sorted row's storage and how many of its slots are in use.
    fn sorted_mut(&mut self) -> (&mut [u32], usize) {
        match self {
            Row::Inline { n, dsts } => (&mut dsts[..], *n as usize),
            Row::Sorted { len, buf } => (&mut buf[..], *len as usize),
            Row::Bits(_) => unreachable!("a bitset row is not sorted"),
        }
    }

    /// Sets how many of the sorted storage's slots are in use.
    fn set_len(&mut self, used: usize) {
        match self {
            Row::Inline { n, .. } => *n = used as u8,
            Row::Sorted { len, .. } => *len = used as u32,
            Row::Bits(_) => unreachable!("a bitset row is not sorted"),
        }
    }

    fn contains(&self, d: u32) -> bool {
        match self {
            Row::Bits(bits) => bits.contains(d),
            _ => self.sorted().binary_search(&d).is_ok(),
        }
    }

    fn is_empty(&self) -> bool {
        match self {
            Row::Bits(bits) => bits.is_empty(),
            _ => self.sorted().is_empty(),
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            Row::Inline { .. } => 0,
            Row::Sorted { buf, .. } => buf.len() * size_of::<u32>(),
            Row::Bits(bits) => size_of::<DenseBitSet>() + bits.resident_bytes(),
        }
    }

    /// Inserts `d`; returns whether it was absent. A full row grows by a
    /// quarter, or turns into a bitset if that is no larger.
    fn insert(&mut self, d: u32) -> bool {
        if let Row::Bits(bits) = self {
            return bits.insert(d);
        }
        let (dsts, len) = self.sorted_mut();
        let Err(at) = dsts[..len].binary_search(&d) else {
            return false;
        };
        if len < dsts.len() {
            dsts.copy_within(at..len, at + 1);
            dsts[at] = d;
            self.set_len(len + 1);
            return true;
        }
        let grown = len + (len / 4).max(4);
        let max = dsts[len - 1].max(d);
        *self = if grown * size_of::<u32>() >= bitset_bytes(max) {
            let mut bits = DenseBitSet::with_max(max);
            for &x in dsts.iter().chain([&d]) {
                bits.insert(x);
            }
            Row::Bits(Box::new(bits))
        } else {
            let mut buf = vec![0; grown].into_boxed_slice();
            buf[..at].copy_from_slice(&dsts[..at]);
            buf[at] = d;
            buf[at + 1..=len].copy_from_slice(&dsts[at..]);
            Row::Sorted {
                len: u32::try_from(len + 1).expect("a row is bounded by the u32 vertex ids"),
                buf,
            }
        };
        true
    }

    /// Removes `d`; returns whether it was present.
    fn remove(&mut self, d: u32) -> bool {
        if let Row::Bits(bits) = self {
            return bits.remove(d);
        }
        let (dsts, len) = self.sorted_mut();
        let Ok(at) = dsts[..len].binary_search(&d) else {
            return false;
        };
        dsts.copy_within(at + 1..len, at);
        self.set_len(len - 1);
        true
    }
}

impl ResultSet {
    /// Pairs in the set.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn contains(&self, pair: ResultPair) -> bool {
        self.rows
            .get(&pair.src)
            .is_some_and(|row| row.contains(pair.dst.0))
    }

    /// The row of `src`, for a run of inserts that all share that
    /// source. The map is not probed until the first insert.
    pub(crate) fn row(&mut self, src: VertexId) -> RowMut<'_> {
        RowMut {
            src,
            map: Some(&mut self.rows),
            row: None,
            len: &mut self.len,
            row_bytes: &mut self.row_bytes,
        }
    }

    /// Removes `pair`; returns whether it was present.
    pub(crate) fn remove(&mut self, pair: ResultPair) -> bool {
        let Some(row) = self.rows.get_mut(&pair.src) else {
            return false;
        };
        if !row.remove(pair.dst.0) {
            return false;
        }
        if row.is_empty() {
            self.row_bytes -= row.heap_bytes();
            self.rows.remove(&pair.src);
        }
        self.len -= 1;
        true
    }

    /// Every pair, sorted by `(src, dst)`: only the sources are sorted,
    /// each row is already in order.
    pub(crate) fn sorted_pairs(&self) -> Vec<ResultPair> {
        let mut rows: Vec<(VertexId, &Row)> = self.rows.iter().map(|(&s, r)| (s, r)).collect();
        rows.sort_unstable_by_key(|&(src, _)| src);
        let mut out = Vec::with_capacity(self.len);
        for (src, row) in rows {
            let pair = |d: u32| ResultPair::new(src, VertexId(d));
            match row {
                Row::Bits(bits) => out.extend(bits.iter_ones().map(pair)),
                _ => out.extend(row.sorted().iter().map(|&d| pair(d))),
            }
        }
        out
    }

    /// Heap bytes held: the map's table and the rows' buffers.
    pub(crate) fn heap_bytes(&self) -> usize {
        table_bytes::<VertexId, Row>(self.rows.capacity()) + self.row_bytes
    }
}

impl FromIterator<ResultPair> for ResultSet {
    /// Builds a set from pairs grouped by source (a checkpoint's sorted
    /// sequence), looking each source's row up once.
    fn from_iter<I: IntoIterator<Item = ResultPair>>(pairs: I) -> ResultSet {
        let mut set = ResultSet::default();
        let mut pairs = pairs.into_iter().peekable();
        while let Some(first) = pairs.next() {
            let mut row = set.row(first.src);
            row.insert(first.dst);
            while let Some(next) = pairs.next_if(|p| p.src == first.src) {
                row.insert(next.dst);
            }
        }
        set
    }
}

/// One source's row, held across a run of inserts.
pub(crate) struct RowMut<'a> {
    src: VertexId,
    /// The map, until the first insert trades it for `row`.
    map: Option<&'a mut FxHashMap<VertexId, Row>>,
    row: Option<&'a mut Row>,
    len: &'a mut usize,
    row_bytes: &'a mut usize,
}

impl RowMut<'_> {
    /// Inserts `(src, dst)`; returns whether it was absent.
    pub(crate) fn insert(&mut self, dst: VertexId) -> bool {
        if let Some(map) = self.map.take() {
            self.row = Some(map.entry(self.src).or_insert(EMPTY));
        }
        let row = self
            .row
            .as_deref_mut()
            .expect("the first insert looked the row up");
        let before = row.heap_bytes();
        let fresh = row.insert(dst.0);
        *self.row_bytes = *self.row_bytes + row.heap_bytes() - before;
        *self.len += usize::from(fresh);
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use srpq_common::FxHashSet;

    fn pair(src: u32, dst: u32) -> ResultPair {
        ResultPair::new(VertexId(src), VertexId(dst))
    }

    fn sorted(reference: &FxHashSet<ResultPair>) -> Vec<ResultPair> {
        let mut pairs: Vec<ResultPair> = reference.iter().copied().collect();
        pairs.sort_unstable();
        pairs
    }

    /// The rows' heap bytes, recounted.
    fn recount_row_bytes(set: &ResultSet) -> usize {
        set.rows.values().map(Row::heap_bytes).sum()
    }

    #[test]
    fn map_entries_stay_thirty_two_bytes() {
        assert_eq!(size_of::<(VertexId, Row)>(), 32);
    }

    /// Seeded random insert / remove / contains runs against an
    /// `FxHashSet` reference. Inserts come in runs through one
    /// [`RowMut`], as an extend drain makes them.
    #[test]
    fn matches_a_hash_set_model() {
        // (name, sources, max id, operations): dense ids promote rows to
        // bitsets after ~90 destinations; sparse ids stay inline or
        // sorted and empty rows out; `wide` promotes with ids up to
        // 64 000 (after ~2 000 destinations).
        let cases: [(&str, usize, u32, usize); 3] = [
            ("dense", 12, 2_999, 20_000),
            ("sparse", 400, 500_000, 20_000),
            ("wide", 2, 64_000, 12_000),
        ];
        for seed in 0..3u64 {
            for &(name, n_sources, max_id, ops) in &cases {
                let label = format!("{name}, seed {seed}");
                let mut rng = SmallRng::seed_from_u64(seed);
                let sources: Vec<u32> = (0..n_sources).map(|_| rng.gen_range(0..=max_id)).collect();
                let mut set = ResultSet::default();
                let mut reference = FxHashSet::default();
                let mut done = 0;
                while done < ops {
                    let src = sources[rng.gen_range(0..sources.len())];
                    let roll = rng.gen_range(0..10u32);
                    if roll < 6 {
                        let mut row = set.row(VertexId(src));
                        for _ in 0..rng.gen_range(1..8) {
                            let dst = rng.gen_range(0..=max_id);
                            let fresh = reference.insert(pair(src, dst));
                            assert_eq!(row.insert(VertexId(dst)), fresh, "{label}");
                            done += 1;
                        }
                    } else {
                        // Half the probes name a pair of the set.
                        let mut p = pair(src, rng.gen_range(0..=max_id));
                        if rng.gen_bool(0.5) {
                            if let Some(&hit) = reference.iter().nth(rng.gen_range(0..64)) {
                                p = hit;
                            }
                        }
                        if roll < 8 {
                            assert_eq!(set.remove(p), reference.remove(&p), "{label}");
                        } else {
                            assert_eq!(set.contains(p), reference.contains(&p), "{label}");
                        }
                        done += 1;
                    }
                    assert_eq!(set.len(), reference.len(), "{label}");
                }
                assert_eq!(set.row_bytes, recount_row_bytes(&set), "{label}");
                let promoted = set.rows.values().any(|r| matches!(r, Row::Bits(_)));
                assert_eq!(promoted, name != "sparse", "{label}");
                assert!(set.rows.values().all(|r| !r.is_empty()), "{label}");
                for &p in &reference {
                    assert!(set.contains(p), "{label}");
                }

                // The walk is the reference's sorted pairs (the
                // checkpoint's `emitted` order), and rebuilding from it
                // round-trips.
                let walk = set.sorted_pairs();
                assert_eq!(walk, sorted(&reference), "{label}");
                let rebuilt: ResultSet = walk.iter().copied().collect();
                assert_eq!(rebuilt.len(), set.len(), "{label}");
                assert_eq!(rebuilt.sorted_pairs(), walk, "{label}");
                assert_eq!(rebuilt.row_bytes, recount_row_bytes(&rebuilt), "{label}");
            }
        }
    }

    #[test]
    fn rows_move_to_the_heap_and_emptied_rows_leave_the_map() {
        let mut set = ResultSet::default();
        let mut row = set.row(VertexId(7));
        for d in [50_000, 10_000, 90_000, 30_000, 70_000, 20_000] {
            assert!(row.insert(VertexId(d)));
        }
        assert!(!row.insert(VertexId(90_000)));
        // The sixth destination overflows the inline slots; a bitset up
        // to 90 000 would be far larger than nine slots.
        assert!(matches!(set.rows[&VertexId(7)], Row::Sorted { len: 6, .. }));
        assert_eq!(set.row_bytes, 9 * size_of::<u32>());
        let dsts = [10_000, 20_000, 30_000, 50_000, 70_000, 90_000];
        assert_eq!(set.sorted_pairs(), dsts.map(|d| pair(7, d)));
        for d in dsts {
            assert!(set.remove(pair(7, d)));
        }
        assert!(!set.remove(pair(7, 90_000)));
        assert_eq!((set.len(), set.rows.len(), set.row_bytes), (0, 0, 0));
    }
}
