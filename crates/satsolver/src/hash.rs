//! Stable content hashing for cache keys and proof fingerprints, and a
//! fast hasher for in-memory tables.
//!
//! The workspace is hermetic, and `std`'s `DefaultHasher` is explicitly
//! unstable across releases, so content-addressed caches (the `ptxd`
//! verdict cache, DRAT fingerprints) need their own hash with a pinned
//! definition: FNV-1a over 64 bits. It is not collision-resistant
//! against adversaries — callers that need more width combine two
//! streams with different seeds ([`Fnv64::with_seed`]), which is ample
//! for content addressing a litmus corpus.
//!
//! [`FxHasher`] is for hash tables whose keys are small integers built
//! by the program itself (circuit gates, translated subexpressions):
//! one rotate, xor and multiply per word, where `std`'s SipHash spends
//! tens of cycles guarding against flooding attacks these keys cannot
//! mount. Its values are not pinned and must never be persisted.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a 64-bit hasher.
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

impl Fnv64 {
    /// A hasher starting from the standard offset basis.
    pub fn new() -> Fnv64 {
        Fnv64::with_seed(FNV_OFFSET)
    }

    /// A hasher starting from `seed`, for deriving independent streams
    /// over the same bytes.
    pub fn with_seed(seed: u64) -> Fnv64 {
        Fnv64 { state: seed }
    }

    /// Absorbs `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a `u64` as its 8 little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

/// One-shot [`Fnv64`] over `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// The multiplier of the Fx hash (the word-at-a-time hash used inside
/// rustc and Firefox).
const FX_SEED: u64 = 0x517c_c1b7_2722_0a95;

/// A word-at-a-time multiplicative hasher for in-memory tables keyed by
/// program-built values; see the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        // Reference values from the FNV specification (draft-eastlake).
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut h = Fnv64::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv64(b"foobar"));
    }

    #[test]
    fn seeds_give_independent_streams() {
        let a = {
            let mut h = Fnv64::new();
            h.write(b"same bytes");
            h.finish()
        };
        let b = {
            let mut h = Fnv64::with_seed(FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15);
            h.write(b"same bytes");
            h.finish()
        };
        assert_ne!(a, b);
    }

    #[test]
    fn write_u64_is_little_endian_bytes() {
        let mut a = Fnv64::new();
        a.write_u64(0x0102_0304_0506_0708);
        let mut b = Fnv64::new();
        b.write(&[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn fx_hashes_words_and_bytes_alike() {
        // A u64 written as a word and as its 8 little-endian bytes hash
        // the same, and a short tail is zero-padded to one word.
        let mut a = FxHasher::default();
        a.write_u64(0x0102_0304_0506_0708);
        let mut b = FxHasher::default();
        b.write(&[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        c.write(&[1, 2, 3]);
        let mut d = FxHasher::default();
        d.write_u64(0x0003_0201);
        assert_eq!(c.finish(), d.finish());
        assert_ne!(a.finish(), c.finish());
    }
}
