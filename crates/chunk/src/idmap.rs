//! [`IdMap`]: a hash map for ids the server allocates itself.
//!
//! PBNs and container ids are dense counters handed out by the store, so
//! no client can pick them to force collisions; std's keyed SipHash buys
//! nothing there but its rounds. One multiply by an odd constant spreads
//! them instead: the high bits (the table's tag byte)
//! are well mixed, and the low bits (the bucket index) are a bijection of
//! the key's low bits, so consecutive ids never share a bucket. Keys a
//! client chooses — LBAs — stay on std's `RandomState`.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by a server-allocated id, on [`IdHasher`].
///
/// # Examples
///
/// ```
/// use fidr_chunk::{IdMap, Pbn};
///
/// let mut records: IdMap<Pbn, u32> = IdMap::default();
/// records.insert(Pbn(7), 1);
/// assert_eq!(records.get(&Pbn(7)), Some(&1));
/// ```
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// The deterministic multiply hasher behind [`IdMap`].
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

/// 2⁶⁴ / φ, odd: the Fibonacci-hashing multiplier.
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(MULTIPLIER);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pbn;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(key: impl Hash) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(key)
    }

    #[test]
    fn consecutive_ids_land_in_distinct_buckets() {
        let mask = (1u64 << 12) - 1;
        let mut buckets: Vec<u64> = (0..1u64 << 12).map(|n| hash_of(Pbn(n)) & mask).collect();
        buckets.sort_unstable();
        buckets.dedup();
        assert_eq!(buckets.len(), 1 << 12);
    }

    #[test]
    fn hashing_is_deterministic_and_matches_the_raw_id() {
        assert_eq!(hash_of(Pbn(42)), hash_of(42u64));
        assert_eq!(hash_of(42u64), 42u64.wrapping_mul(MULTIPLIER));
    }
}
