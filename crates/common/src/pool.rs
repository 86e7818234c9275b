//! Bounded free lists of emptied containers.
//!
//! Sliding-window churn empties and refills the same kinds of containers
//! over and over (a vertex's adjacency, a vertex's reverse-index entry, a
//! Δ tree). Freeing each one when it empties and allocating a new one
//! when a key comes back would put the allocator on the per-tuple path;
//! keeping every emptied container forever makes memory a function of
//! stream length instead of window size. A [`Pool`] is the middle: it
//! keeps an emptied container for reuse only while it is small and the
//! pool is not full, so the steady state stays allocation-free and what
//! the pool holds is bounded by [`POOL_MAX_ENTRIES`] × `MAX_SIZE`.

/// The most containers any [`Pool`] holds.
pub const POOL_MAX_ENTRIES: usize = 4096;

/// The size cap of a pool that measures its containers in heap bytes.
pub const POOL_MAX_ENTRY_BYTES: usize = 1024;

/// A LIFO free list of emptied containers, each at most `MAX_SIZE` in
/// a unit the owner chooses (bytes, arena slots), at most
/// [`POOL_MAX_ENTRIES`] of them.
#[derive(Debug)]
pub struct Pool<T, const MAX_SIZE: usize> {
    free: Vec<T>,
}

impl<T, const MAX_SIZE: usize> Default for Pool<T, MAX_SIZE> {
    fn default() -> Self {
        Pool { free: Vec::new() }
    }
}

impl<T, const MAX_SIZE: usize> Pool<T, MAX_SIZE> {
    /// The most recently kept container, if any.
    #[inline]
    pub fn take(&mut self) -> Option<T> {
        self.free.pop()
    }

    /// Keeps `item`, whose size is `size`, for reuse if it is no larger
    /// than `MAX_SIZE` and the pool has room; drops it otherwise.
    /// Returns whether it was kept.
    pub fn put(&mut self, item: T, size: usize) -> bool {
        let keep = size <= MAX_SIZE && self.free.len() < POOL_MAX_ENTRIES;
        if keep {
            self.free.push(item);
        }
        keep
    }

    /// The containers held, most recent last.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.free.iter()
    }

    /// Heap bytes of the free list itself (not of what the containers
    /// hold).
    pub fn heap_bytes(&self) -> usize {
        self.free.capacity() * std::mem::size_of::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_only_small_entries_up_to_the_count_bound() {
        let mut pool: Pool<u32, 8> = Pool::default();
        assert!(!pool.put(0, 9), "over the size cap");
        for i in 0..POOL_MAX_ENTRIES as u32 {
            assert!(pool.put(i, 8));
        }
        assert!(!pool.put(7, 1), "full");
        assert_eq!(pool.iter().count(), POOL_MAX_ENTRIES);
        assert_eq!(pool.take(), Some(POOL_MAX_ENTRIES as u32 - 1));
        assert!(pool.put(7, 1));
        assert_eq!(pool.take(), Some(7));
    }
}
