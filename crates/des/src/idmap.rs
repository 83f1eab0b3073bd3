//! Hash maps keyed by simulator ids.
//!
//! Per-flit maps (a terminal's delivery checker and message reassembly)
//! look up an integer id on every ejected flit. `HashMap`'s default
//! SipHash defends against hash flooding, which keys the simulator makes
//! up itself do not need, and costs several times a multiply. [`IdMap`]
//! hashes an integer key with two multiplies and two folds of the high
//! half into the low, so ids that differ only in their high bits (a
//! packet id is `terminal << 40 | sequence`) still spread over the
//! buckets.
//!
//! Iteration order differs from a SipHash map, so nothing may depend on
//! it: checkpoints write maps sorted by key
//! ([`put_map`](crate::wire::put_map)).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A [`HashMap`] hashed by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// The multiplier of Fibonacci hashing: 2^64 over the golden ratio.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// An integer hasher for simulator ids: a multiply per written word, and
/// a fold-multiply-fold at the end.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // A multiply only carries bits upward: fold the high half down,
        // spread it again, and fold once more, so that keys differing
        // only above bit 40 still differ in the low (bucket) bits.
        let h = (self.0 ^ (self.0 >> 32)).wrapping_mul(K);
        h ^ (h >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(K);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn ids_differing_in_high_bits_land_in_different_buckets() {
        // 64 terminals' packet 0: keys equal in their low 40 bits.
        let build = BuildHasherDefault::<IdHasher>::default();
        let mut low: Vec<u64> = (0..64u64).map(|t| build.hash_one(t << 40) & 0x3F).collect();
        low.sort_unstable();
        low.dedup();
        assert!(
            low.len() > 32,
            "only {} of 64 low-bit buckets used",
            low.len()
        );
    }

    #[test]
    fn byte_writes_agree_with_word_writes() {
        let (mut a, mut b) = (IdHasher::default(), IdHasher::default());
        a.write(&0x0123_4567_89AB_CDEFu64.to_le_bytes());
        b.write_u64(0x0123_4567_89AB_CDEF);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn id_map_behaves_as_a_map() {
        let mut m: IdMap<u64, u32> = IdMap::default();
        for k in 0..1000u64 {
            m.insert(k << 40 | k, k as u32);
        }
        assert_eq!(m.len(), 1000);
        assert!((0..1000u64).all(|k| m[&(k << 40 | k)] == k as u32));
    }
}
