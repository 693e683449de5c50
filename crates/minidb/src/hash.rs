//! Fast non-cryptographic hashing for executor hash maps.
//!
//! `std`'s default SipHash guards against adversarial key collisions —
//! protection the executor does not need for its own join and group-by
//! maps, whose keys come from table data the engine already holds. The
//! FxHash-style word mixer below (rotate, xor, multiply by a large odd
//! constant) hashes an `i128` packed join key in a couple of cycles,
//! which is visible end-to-end on the DL2SQL conv hot path where the
//! probe loop is little more than hash + fold.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// Multiplier from FxHash (Firefox): a large odd constant with good bit
/// dispersion under multiplication.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Word-at-a-time multiplicative hasher.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// The splitmix64 finalizer: a bijection on 64-bit words, so distinct
/// words stay distinct, that moves every input bit into the low bits
/// (FxHash takes a table's bucket bits from a key's low bits alone).
pub(crate) fn spread(x: u64) -> u64 {
    let x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The content hash of a byte string: [`FxHasher`] over its length, then
/// its bytes a word at a time, finished with the splitmix64 finalizer.
/// Blobs store it ([`crate::Blob`]); compiled models are named by it.
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write_usize(bytes.len());
    h.write(bytes);
    spread(h.finish())
}

/// `BuildHasher` producing [`FxHasher`]s (no per-map random state: the
/// executor's maps are never exposed to untrusted key choice, and a fixed
/// state keeps iteration—and thus any map-order-dependent cost—repeatable).
#[derive(Debug, Default, Clone, Copy)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

/// A `HashMap` keyed with the fast hasher.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// An empty fast-hashed map pre-sized for `capacity` entries.
pub fn fx_map_with_capacity<K, V>(capacity: usize) -> FxHashMap<K, V> {
    HashMap::with_capacity_and_hasher(capacity, FxBuildHasher)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_words_rarely_collide() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            let mut h = FxHasher::default();
            h.write_u64(i);
            seen.insert(h.finish());
        }
        assert_eq!(seen.len(), 10_000, "sequential keys must not collide");
    }

    #[test]
    fn hashing_is_deterministic_across_builders() {
        let b = FxBuildHasher;
        let one = b.hash_one(42i128);
        let two = FxBuildHasher.hash_one(42i128);
        assert_eq!(one, two);
    }

    #[test]
    fn map_round_trips_composite_keys() {
        let mut m: FxHashMap<Vec<u64>, usize> = fx_map_with_capacity(4);
        m.insert(vec![1, 2], 12);
        m.insert(vec![2, 1], 21);
        assert_eq!(m.get([1, 2].as_slice()), Some(&12));
        assert_eq!(m.get([2, 1].as_slice()), Some(&21));
    }

    #[test]
    fn byte_writes_cover_partial_words() {
        let mut a = FxHasher::default();
        a.write(b"abcdefghi"); // 8 + 1 bytes: two words
        let mut b = FxHasher::default();
        b.write(b"abcdefghj");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn content_hash_covers_every_byte_and_the_length() {
        assert_ne!(content_hash(b"abc"), content_hash(b"abd"));
        // Zero padding of the last word does not merge lengths.
        assert_ne!(content_hash(b""), content_hash(&[0]));
        assert_ne!(content_hash(&[1]), content_hash(&[1, 0]));
        assert_eq!(content_hash(b"keyframe"), content_hash(b"keyframe"));
        // Words that differ in their high bits alone still differ in the
        // low bits a hash table reads.
        let low = |w: u64| content_hash(&w.to_le_bytes()) & 0xff;
        let lows: std::collections::HashSet<u64> = (0..64u64).map(|i| low(i << 56)).collect();
        assert!(lows.len() > 32, "{} distinct low bytes", lows.len());
    }
}
