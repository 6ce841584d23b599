//! The arbitrary-CRCW table of *Algorithm partition*.
//!
//! The paper's model allows many processors to write the same memory cell in
//! one step; an *arbitrary* one of them succeeds.  *Algorithm partition*
//! (Section 3.2) relies on this: it writes positions into a huge table
//! `BB[EQ[d1], EQ[d2]]` so that every distinct pair of labels ends up with
//! exactly one representative position — modelled by [`CrcwTable`], an
//! insert-if-absent concurrent map (the `O(n^2)` table of the paper, with
//! the memory reduced the same way the paper cites \[3\] for).

use crate::fxhash::FxBuildHasher;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::Hash;

/// Number of shards used by [`CrcwTable`]; a power of two so the shard can be
/// selected with a mask.
const SHARDS: usize = 64;

/// A concurrent insert-if-absent table standing in for the paper's
/// `BB[1..n, 1..n]` auxiliary array.
///
/// `insert_arbitrary(key, value)` stores `value` only if `key` is absent and
/// returns the value that is stored after the call — i.e. every key ends up
/// with exactly one representative chosen arbitrarily among the concurrent
/// writers, which is precisely how *Algorithm partition* uses `BB`.
#[derive(Debug)]
pub struct CrcwTable<K: Eq + Hash> {
    shards: Vec<Mutex<HashMap<K, u64, FxBuildHasher>>>,
    hasher: FxBuildHasher,
}

impl<K: Eq + Hash> Default for CrcwTable<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash> CrcwTable<K> {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty table pre-sized for roughly `cap` keys.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        let per_shard = cap / SHARDS + 1;
        CrcwTable {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(HashMap::with_capacity_and_hasher(per_shard, FxBuildHasher)))
                .collect(),
            hasher: FxBuildHasher,
        }
    }

    #[inline]
    fn shard_of(&self, key: &K) -> usize {
        use std::hash::BuildHasher;

        // Use the high bits: the low bits pick the bucket inside the shard.
        (self.hasher.hash_one(key) >> 57) as usize & (SHARDS - 1)
    }

    /// Insert `value` for `key` if absent; return the stored value (the
    /// winner).  Concurrent calls with the same key race arbitrarily, which
    /// is the intended CRCW behaviour.
    pub fn insert_arbitrary(&self, key: K, value: u64) -> u64 {
        let shard = self.shard_of(&key);
        let mut guard = self.shards[shard].lock();
        *guard.entry(key).or_insert(value)
    }

    /// Read the representative for `key`, if any.
    #[must_use]
    pub fn get(&self, key: &K) -> Option<u64> {
        let shard = self.shard_of(key);
        let guard = self.shards[shard].lock();
        guard.get(key).copied()
    }

    /// Total number of distinct keys stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove all entries (a new round of *Algorithm partition*).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crcw_table_insert_if_absent() {
        let table: CrcwTable<(u32, u32)> = CrcwTable::new();
        assert!(table.is_empty());
        assert_eq!(table.insert_arbitrary((1, 2), 10), 10);
        assert_eq!(table.insert_arbitrary((1, 2), 99), 10);
        assert_eq!(table.insert_arbitrary((2, 1), 20), 20);
        assert_eq!(table.get(&(1, 2)), Some(10));
        assert_eq!(table.get(&(3, 3)), None);
        assert_eq!(table.len(), 2);
        table.clear();
        assert!(table.is_empty());
    }

    #[test]
    fn crcw_table_concurrent_unique_representative() {
        let table: CrcwTable<u64> = CrcwTable::with_capacity(1024);
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let table = &table;
                scope.spawn(move || {
                    for key in 0..1000u64 {
                        // All threads insert different values for the same key.
                        let _ = table.insert_arbitrary(key, t * 10_000 + key);
                    }
                });
            }
        });
        assert_eq!(table.len(), 1000);
        for key in 0..1000u64 {
            let v = table.get(&key).unwrap();
            // The stored value must come from one of the writers of this key.
            assert_eq!(v % 10_000, key);
        }
    }
}
