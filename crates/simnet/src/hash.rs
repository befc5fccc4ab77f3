//! One deterministic fast hasher for the keys the simulator builds.
//!
//! The per-frame tables — bridge and VTEP FDBs, neighbor tables,
//! conntrack and its indexes, the filter's state tracker, an endpoint's
//! bound ports, the flow table — are keyed by MACs, addresses, ports and
//! flow keys that the simulator itself makes: the VMM assigns every MAC,
//! and no QMP command carries one. No outside party picks these keys, so
//! SipHash's defence against chosen-key flooding buys nothing, while its
//! cost lands on every frame. No output depends on these maps' iteration
//! order: under std's per-process random seed they already iterated in a
//! different order in every process, and every digest repeated.
//!
//! Everything else keeps std's default hasher, in particular keys that
//! come from outside the program (cloudsim's trace reader parses outside
//! CSV) and the general-purpose metric-name interner.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by values the simulator builds.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` of values the simulator builds.
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// The rustc hasher's word step: rotate, xor in the word, multiply. It
/// has no seed, so a table's layout is the same in every run.
#[derive(Debug, Clone, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
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

    /// The multiply mixes upward, so the low bits the table indexes with
    /// are the weakest; rotate the well-mixed high bits down.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::MacAddr;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(v: impl Hash) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn unseeded_and_value_sensitive() {
        let mac = MacAddr::local(7);
        assert_eq!(hash_of(mac), hash_of(MacAddr::local(7)));
        assert_ne!(hash_of(mac), hash_of(MacAddr::local(8)));
        assert_ne!(hash_of((1u16, 2u32)), hash_of((2u16, 1u32)));
    }

    #[test]
    fn sequential_keys_spread_over_buckets() {
        // Bucket index = low bits of the hash: 4,096 consecutive MACs must
        // fill most of 4,096 buckets. A MAC's varying bytes sit high in
        // its word, so without `finish`'s rotation they all share one.
        let mut used = FxHashSet::default();
        for id in 0..4096u32 {
            used.insert(hash_of(MacAddr::local(id)) & 4095);
        }
        assert!(used.len() > 2048, "only {} buckets used", used.len());
    }
}
