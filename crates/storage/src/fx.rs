//! A fast, non-cryptographic hasher for join/group keys.
//!
//! Join and grouping operators hash every tuple, so SipHash (the std
//! default) is a measurable tax. This is the classic multiply-rotate-xor
//! scheme (as used by Firefox and rustc); HashDoS resistance is irrelevant
//! for engine-internal keys.

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate-xor hasher.
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
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(&bytes[..8]);
            self.add_to_hash(u64::from_le_bytes(buf));
            bytes = &bytes[8..];
        }
        if bytes.len() >= 4 {
            let mut buf = [0u8; 4];
            buf.copy_from_slice(&bytes[..4]);
            self.add_to_hash(u32::from_le_bytes(buf) as u64);
            bytes = &bytes[4..];
        }
        for &b in bytes {
            self.add_to_hash(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
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

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Hash one value with [`FxHasher`] (stable across runs and structures,
/// unlike the std default; histograms bucket strings by it).
pub fn hash_one<T: std::hash::Hash>(v: &T) -> u64 {
    let mut h = FxHasher::default();
    v.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(hash_one(&42u64), hash_one(&42u64));
        assert_ne!(hash_one(&42u64), hash_one(&43u64));
    }

    #[test]
    fn string_hashing_spreads() {
        let a = hash_one(&"orders.o_orderkey");
        let b = hash_one(&"orders.o_custkey");
        assert_ne!(a, b);
    }

    #[test]
    fn map_works() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&500], 1000);
    }

    #[test]
    fn partial_word_writes() {
        // Exercise the 4-byte and tail paths.
        let mut h = FxHasher::default();
        h.write(&[1, 2, 3, 4, 5]);
        let a = h.finish();
        let mut h2 = FxHasher::default();
        h2.write(&[1, 2, 3, 4, 6]);
        assert_ne!(a, h2.finish());
    }
}
