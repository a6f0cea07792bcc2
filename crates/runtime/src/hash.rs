//! A fast, non-cryptographic hasher for hot-path maps keyed by small
//! `Copy` values (interned ids, sequence numbers, performance keys).
//!
//! `std`'s default SipHash is DoS-resistant but costs tens of nanoseconds
//! per lookup — measurable when the scheduler hashes a key per task. The
//! runtime's hot maps are keyed by values the application controls anyway
//! (its own codelets and handles), so collision-flooding resistance buys
//! nothing here. The mixing function is the multiply-xor scheme used by
//! rustc's FxHash: fold each 8-byte chunk into the state with a rotate,
//! xor, and multiply by a 64-bit constant derived from the golden ratio.

use std::hash::{BuildHasherDefault, Hasher};

/// Golden-ratio multiplier (same constant rustc's FxHash uses).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The hasher state. One `u64`, folded per write.
#[derive(Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.fold(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.fold(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.fold(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.fold(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.fold(i as u64);
    }
}

/// `BuildHasher` for [`FastHasher`]-keyed collections.
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` using [`FastHasher`].
pub type FastMap<K, V> = std::collections::HashMap<K, V, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        FastBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_and_distinguishing() {
        assert_eq!(hash_of(42u64), hash_of(42u64));
        assert_ne!(hash_of(42u64), hash_of(43u64));
        assert_ne!(hash_of((1u32, 2u32)), hash_of((2u32, 1u32)));
    }

    #[test]
    fn byte_slices_fold_tail() {
        // Same prefix, different tails must differ.
        assert_ne!(hash_of(&b"abcdefgh-x"[..]), hash_of(&b"abcdefgh-y"[..]));
        // Short (sub-word) inputs still mix.
        assert_ne!(hash_of(&b"a"[..]), hash_of(&b"b"[..]));
    }

    #[test]
    fn map_works_end_to_end() {
        let mut m: FastMap<u64, &str> = FastMap::default();
        for i in 0..1000u64 {
            m.insert(i, "v");
        }
        assert_eq!(m.len(), 1000);
        assert!(m.contains_key(&999));
    }
}
