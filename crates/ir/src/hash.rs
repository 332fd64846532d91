//! A fast, seeded hasher for the hash tables selection keys by ids.
//!
//! Selection hashes small keys on its hot path: a [`TreeNode`] per
//! interned node, a [`TreeId`] per DAG cut, a cut context per labelled
//! subtree, a [`Symbol`] per block store. The standard library's SipHash
//! spends most of its time in finalization rounds that keys of one or
//! two words do not need. [`FoldHasher`] mixes each word into its state
//! with one folded multiply: the full 128-bit product of the state and a
//! key, its halves XORed together; `finish` folds the state once more.
//!
//! Its inputs can come from outside the program (a `recordd` request
//! names symbols and constants), so the hasher is keyed: [`FoldState`]
//! draws its seed and multiplier once per process from the standard
//! library's [`RandomState`]. A program cannot be crafted to collide
//! without knowing them, as with SipHash's per-process keys.
//!
//! No table hashed this way is iterated where the order could reach
//! output, so the per-process keys never make a compile differ between
//! runs.
//!
//! [`TreeNode`]: crate::TreeNode
//! [`TreeId`]: crate::TreeId
//! [`Symbol`]: crate::Symbol

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A [`HashMap`] hashed with [`FoldHasher`].
pub type FoldMap<K, V> = HashMap<K, V, FoldState>;

/// Builds [`FoldHasher`]s under this process's keys.
#[derive(Clone, Copy, Debug)]
pub struct FoldState {
    seed: u64,
    multiplier: u64,
}

impl Default for FoldState {
    /// The process's keys, drawn from [`RandomState`] on first use.
    fn default() -> Self {
        static KEYS: OnceLock<FoldState> = OnceLock::new();
        *KEYS.get_or_init(|| {
            let random = RandomState::new();
            FoldState {
                seed: random.hash_one(0x5EED_u64),
                // an odd multiplier keeps every bit of the state alive
                multiplier: random.hash_one(0xF01D_u64) | 1,
            }
        })
    }
}

impl BuildHasher for FoldState {
    type Hasher = FoldHasher;

    fn build_hasher(&self) -> FoldHasher {
        FoldHasher { state: self.seed, multiplier: self.multiplier }
    }
}

/// The hasher [`FoldState`] builds: one folded multiply per word.
#[derive(Clone, Debug)]
pub struct FoldHasher {
    state: u64,
    multiplier: u64,
}

impl FoldHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        let product = u128::from(self.state ^ word) * u128::from(self.multiplier);
        self.state = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for FoldHasher {
    /// Mixes the length, then the bytes eight at a time (the last word
    /// zero-padded): the length keeps a zero-padded tail apart from the
    /// same bytes followed by zeros.
    fn write(&mut self, bytes: &[u8]) {
        self.mix(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.mix(u64::from_le_bytes(word.try_into().expect("an 8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    /// One more folded multiply of the state: the last word mixed in
    /// otherwise reaches the low bits, which tables index by, only
    /// through the product's low half, and consecutive last words (ids)
    /// can then crowd a few buckets.
    #[inline]
    fn finish(&self) -> u64 {
        let product = u128::from(self.state) * u128::from(self.multiplier);
        (product as u64) ^ ((product >> 64) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemRef, Symbol, TreeNode};
    use std::collections::HashSet;

    fn hash_of<T: std::hash::Hash>(value: &T) -> u64 {
        FoldState::default().hash_one(value)
    }

    #[test]
    fn one_process_hashes_a_key_the_same_way_every_time() {
        let node = TreeNode::Mem(MemRef::scalar("x"));
        assert_eq!(hash_of(&node), hash_of(&node.clone()));
        assert_eq!(hash_of(&Symbol::new("acc")), hash_of(&Symbol::new("acc")));
    }

    #[test]
    fn nearby_keys_spread_over_buckets() {
        // a table of 1024 buckets indexes by the low bits and probes by
        // the top seven: dense ids must spread over both
        let ids = 0u32..4096;
        let low: HashSet<u64> = ids.clone().map(|n| hash_of(&n) & 1023).collect();
        let top: HashSet<u64> = ids.map(|n| hash_of(&n) >> 57).collect();
        assert!(low.len() > 900, "{} low-bit buckets", low.len());
        assert_eq!(top.len(), 128);
    }

    #[test]
    fn zero_padded_tails_hash_apart() {
        let a = Symbol::new("ab");
        let b = Symbol::new("ab\0");
        assert_ne!(hash_of(&a), hash_of(&b));
    }
}
