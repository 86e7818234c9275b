//! A fast, deterministic hasher for hot-path hash maps.
//!
//! The Δ tree index is "a concurrent hash-based index where each vertex is
//! mapped to its corresponding spanning tree, and "each spanning tree is
//! assisted with an additional hash-based index for efficient node
//! look-ups" (§5.1.1). Those lookups happen O(k²) times per incoming tuple,
//! so SipHash (the std default, DoS-resistant but slow on short integer
//! keys) is the wrong trade-off. We implement the well-known FxHash
//! multiply-rotate scheme (as used by rustc) locally — ~30 lines — instead
//! of pulling in an extra dependency.

use std::hash::{BuildHasherDefault, Hasher};

/// The Fx multiply constant for 64-bit hashing (golden-ratio derived).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast non-cryptographic hasher; identical scheme to `rustc-hash`.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.add_to_hash(word);
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// Heap bytes of a `HashMap<K, V>` table whose `capacity()` is
/// `capacity`: std keeps the capacity at 7/8 of a power-of-two bucket
/// count (all but one of the buckets below eight), and a table holds one
/// entry and one control byte per bucket plus one group of trailing
/// control bytes.
pub fn table_bytes<K, V>(capacity: usize) -> usize {
    const GROUP_WIDTH: usize = 16;
    let buckets = match capacity {
        0 => return 0,
        1..=3 => 4,
        4..=7 => 8,
        cap => (cap * 8 / 7).next_power_of_two(),
    };
    buckets * (std::mem::size_of::<(K, V)>() + 1) + GROUP_WIDTH
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_one<T: Hash>(value: T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_one(42u64), hash_one(42u64));
        assert_eq!(hash_one("hello"), hash_one("hello"));
        assert_eq!(hash_one((1u32, 2u32)), hash_one((1u32, 2u32)));
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(hash_one(1u64), hash_one(2u64));
        assert_ne!(hash_one((1u32, 2u32)), hash_one((2u32, 1u32)));
        assert_ne!(hash_one("ab"), hash_one("ba"));
    }

    #[test]
    fn byte_tail_handling() {
        // 9 bytes: one full chunk + 1-byte remainder; must differ from the
        // 8-byte prefix alone.
        let a: &[u8] = &[1, 2, 3, 4, 5, 6, 7, 8, 9];
        let b: &[u8] = &[1, 2, 3, 4, 5, 6, 7, 8];
        assert_ne!(hash_one(a), hash_one(b));
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(1, "one");
        assert_eq!(m.get(&1), Some(&"one"));

        let mut s: FxHashSet<(u32, u32)> = FxHashSet::default();
        assert!(s.insert((1, 2)));
        assert!(!s.insert((1, 2)));
    }

    #[test]
    fn reasonable_distribution_on_small_ints() {
        // Sanity check: low 12 bits of hashes of 0..4096 should hit many
        // distinct buckets (no catastrophic clustering).
        let mut buckets = std::collections::HashSet::new();
        for i in 0u64..4096 {
            buckets.insert(hash_one(i) & 0xfff);
        }
        assert!(buckets.len() > 2048, "got {} buckets", buckets.len());
    }
}
