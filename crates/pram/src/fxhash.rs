//! A small, fast, non-cryptographic hasher (the FxHash algorithm used by the
//! Rust compiler), implemented locally to avoid an extra dependency.
//!
//! The coarsest-partition algorithms hash small fixed-size keys — pairs of
//! `u32`/`u64` labels — extremely often (every doubling round of *Algorithm
//! partition* and of the tree-labelling step hashes every live node).  The
//! default SipHash is noticeably slower for such keys; FxHash is the standard
//! choice for integer keys per the performance guide.

use std::hash::{BuildHasher, Hasher};

/// Multiplicative constant from the Firefox/rustc FxHash implementation.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// The FxHash hasher state.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
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

/// `BuildHasher` for [`FxHasher`]; use as the `S` parameter of `HashMap`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

/// Hash a single `u64` to a `u64` with FxHash (handy for cheap fingerprints).
#[must_use]
pub fn hash_u64(x: u64) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(x);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FxHash of the words `a` then `b`.
    fn hash_words(a: u64, b: u64) -> u64 {
        let mut h = FxHasher::default();
        h.write_u64(a);
        h.write_u64(b);
        h.finish()
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_u64(12345), hash_u64(12345));
        assert_eq!(hash_words(1, 2), hash_words(1, 2));
    }

    #[test]
    fn distinguishes_order() {
        assert_ne!(hash_words(1, 2), hash_words(2, 1));
    }

    #[test]
    fn spreads_small_integers() {
        use std::collections::HashSet;
        let hashes: HashSet<u64> = (0..10_000u64).map(hash_u64).collect();
        assert_eq!(hashes.len(), 10_000, "no collisions on tiny dense keys");
    }

    #[test]
    fn map_and_set_work() {
        let mut map: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        for i in 0..1000u32 {
            map.insert((i, i + 1), i);
        }
        assert_eq!(map.len(), 1000);
        assert_eq!(map[&(500, 501)], 500);

        let mut set: FxHashSet<u64> = FxHashSet::default();
        set.insert(3);
        set.insert(3);
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn write_bytes_consistent_with_chunks() {
        // Hashing the same logical bytes must always produce the same digest.
        let mut h1 = FxHasher::default();
        h1.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut h2 = FxHasher::default();
        h2.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(h1.finish(), h2.finish());
    }
}
