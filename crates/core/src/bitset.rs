//! Generation-stamped bitsets for the engine hot paths.
//!
//! The extend/expire inner loops need transient membership sets — "is
//! `(vertex, state)` on this root path?", "was this node in the expired
//! batch?" — that are built and discarded once per work item or per
//! expiry pass. Hash sets pay a hashing + probing cost per query and an
//! allocation per rebuild; [`GenBitSet`] instead keeps u64 blocks that
//! live for the engine's lifetime and are *logically* cleared in O(1)
//! by bumping a generation counter. A block's stored bits only count
//! when its stamp matches the current generation, so `reset` never
//! touches memory and each block is lazily zeroed at most once per
//! generation, on first insert.
//!
//! Callers index the set with a dense `u64` key — e.g.
//! `vertex_slot * n_states + state` for product-graph pairs, where the
//! DFA's state count is a small per-query constant — so membership is
//! one shift, one mask, and one compare against a cache-resident block.

/// A u64-blocked bitset with generation-stamped O(1) clearing.
#[derive(Debug, Default)]
pub struct GenBitSet {
    blocks: Vec<u64>,
    /// Per-block generation stamps: a block's bits are valid only when
    /// its stamp equals `gen`.
    gens: Vec<u32>,
    gen: u32,
}

impl GenBitSet {
    /// Creates an empty set.
    pub fn new() -> GenBitSet {
        GenBitSet {
            blocks: Vec::new(),
            gens: Vec::new(),
            gen: 1,
        }
    }

    /// Logically clears the set in O(1) by starting a new generation.
    /// On the (astronomically rare) generation wrap the stamps are
    /// rewritten once so stale blocks cannot alias the new generation.
    pub fn reset(&mut self) {
        if self.gen == u32::MAX {
            self.gens.fill(0);
            self.gen = 1;
        } else {
            self.gen += 1;
        }
    }

    /// Inserts `bit`, growing the block array on demand. Returns `true`
    /// when the bit was not yet set in the current generation.
    #[inline]
    pub fn insert(&mut self, bit: u64) -> bool {
        let block = (bit >> 6) as usize;
        let mask = 1u64 << (bit & 63);
        if block >= self.blocks.len() {
            self.blocks.resize(block + 1, 0);
            self.gens.resize(block + 1, 0);
        }
        if self.gens[block] != self.gen {
            self.gens[block] = self.gen;
            self.blocks[block] = 0;
        }
        let fresh = self.blocks[block] & mask == 0;
        self.blocks[block] |= mask;
        fresh
    }

    /// Whether `bit` is set in the current generation.
    #[inline]
    pub fn contains(&self, bit: u64) -> bool {
        let block = (bit >> 6) as usize;
        match (self.blocks.get(block), self.gens.get(block)) {
            (Some(&bits), Some(&g)) => g == self.gen && bits & (1u64 << (bit & 63)) != 0,
            _ => false,
        }
    }
}

/// A plain u64-blocked bitset over dense small-integer keys, with
/// set-bit iteration — the label → group-set routing index of the
/// multi-query engines. Unlike [`GenBitSet`] it has no generations:
/// membership changes are explicit (`insert` / `remove`) and persist
/// until removed, and `iter_ones` walks the set bits in ascending
/// order with one trailing-zeros scan per word. Routing a tuple is one
/// such iteration over the groups whose alphabet contains the label,
/// instead of an O(n_queries) scan.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct DenseBitSet {
    blocks: Vec<u64>,
}

impl DenseBitSet {
    /// Creates an empty set.
    pub fn new() -> DenseBitSet {
        DenseBitSet { blocks: Vec::new() }
    }

    /// Creates an empty set whose block array already spans bits
    /// `0..=max`, allocated to exactly that size.
    pub fn with_max(max: u32) -> DenseBitSet {
        DenseBitSet {
            blocks: Vec::with_capacity((max >> 6) as usize + 1),
        }
    }

    /// Inserts `bit`, growing on demand. Returns `true` when the bit
    /// was not yet set.
    #[inline]
    pub fn insert(&mut self, bit: u32) -> bool {
        let block = (bit >> 6) as usize;
        let mask = 1u64 << (bit & 63);
        if block >= self.blocks.len() {
            self.blocks.resize(block + 1, 0);
        }
        let fresh = self.blocks[block] & mask == 0;
        self.blocks[block] |= mask;
        fresh
    }

    /// Removes `bit`. Returns `true` when the bit was set.
    #[inline]
    pub fn remove(&mut self, bit: u32) -> bool {
        let block = (bit >> 6) as usize;
        let mask = 1u64 << (bit & 63);
        match self.blocks.get_mut(block) {
            Some(b) => {
                let was = *b & mask != 0;
                *b &= !mask;
                was
            }
            None => false,
        }
    }

    /// Whether `bit` is set.
    #[inline]
    pub fn contains(&self, bit: u32) -> bool {
        match self.blocks.get((bit >> 6) as usize) {
            Some(&b) => b & (1u64 << (bit & 63)) != 0,
            None => false,
        }
    }

    /// Whether no bit is set.
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Iterates the set bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = u32> + '_ {
        self.blocks.iter().enumerate().flat_map(|(i, &block)| {
            let base = (i as u32) << 6;
            std::iter::successors((block != 0).then_some(block), |&b| {
                let rest = b & (b - 1);
                (rest != 0).then_some(rest)
            })
            .map(move |b| base + b.trailing_zeros())
        })
    }

    /// Resident bytes of the block array (capacity, not just length).
    pub fn resident_bytes(&self) -> usize {
        self.blocks.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_reset() {
        let mut s = GenBitSet::new();
        assert!(!s.contains(7));
        assert!(s.insert(7));
        assert!(!s.insert(7));
        assert!(s.contains(7));
        assert!(s.insert(64 * 100 + 3));
        s.reset();
        assert!(!s.contains(7));
        assert!(!s.contains(64 * 100 + 3));
        assert!(s.insert(7));
    }

    #[test]
    fn generation_wrap_clears_stale_stamps() {
        let mut s = GenBitSet::new();
        s.insert(1);
        s.gen = u32::MAX - 1;
        // A block stamped at the pre-wrap generation must not leak into
        // the post-wrap one.
        s.insert(200);
        s.reset(); // -> u32::MAX
        s.insert(300);
        s.reset(); // wrap: stamps rewritten
        assert!(!s.contains(1));
        assert!(!s.contains(200));
        assert!(!s.contains(300));
        assert!(s.insert(300));
        assert!(s.contains(300));
    }

    #[test]
    fn dense_insert_remove_iterate() {
        let mut s = DenseBitSet::new();
        assert!(s.is_empty());
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.insert(64));
        assert!(s.insert(200));
        assert!(s.insert(0));
        assert_eq!(s.iter_ones().collect::<Vec<_>>(), vec![0, 3, 64, 200]);
        assert_eq!(s.count(), 4);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert!(!s.remove(1000));
        assert!(!s.contains(64));
        assert_eq!(s.iter_ones().collect::<Vec<_>>(), vec![0, 3, 200]);
        s.remove(0);
        s.remove(3);
        s.remove(200);
        assert!(s.is_empty());
        assert_eq!(s.iter_ones().count(), 0);
    }

    #[test]
    fn dense_full_word_iterates_all_bits() {
        let mut s = DenseBitSet::new();
        for b in 0..130 {
            s.insert(b);
        }
        assert_eq!(
            s.iter_ones().collect::<Vec<_>>(),
            (0..130).collect::<Vec<_>>()
        );
    }
}
