//! A minimal Fx-style hasher for the interning and canonical-label hot
//! paths.
//!
//! `std`'s default SipHash is DoS-resistant but costs real time on the
//! millions of tiny keys the [`CanonTable`](crate::CanonTable) and
//! [`Interner`](crate::intern::Interner) hash per document. Those inputs
//! *do* come from arbitrary external JSON, so this hasher keeps a
//! flooding defence: every hasher starts from a **per-process random
//! seed** (drawn once from `std`'s `RandomState`), so collision sets
//! cannot be precomputed offline the way they can against an unseeded
//! multiply-rotate hash. The per-word mix is still the cheap rustc Fx
//! step — one multiply and rotate — which is the point of the swap.
//!
//! The seed defence is weaker than SipHash against an *adaptive* attacker
//! who can measure per-request timing; services exposed to that threat
//! model should front documents with `parse_with_limits` size caps (which
//! bound the damage of any quadratic blow-up).

use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::OnceLock;

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One random value per process, so hash layouts differ across runs.
fn process_seed() -> u64 {
    static PROCESS_SEED: OnceLock<u64> = OnceLock::new();
    *PROCESS_SEED.get_or_init(|| {
        // RandomState carries the OS-provided randomness std already uses.
        let mut h = std::collections::hash_map::RandomState::new().build_hasher();
        h.write_u64(0xF0F0_F0F0);
        h.finish()
    })
}

/// The rustc Fx hash function (one multiply and rotate per word), seeded
/// per process.
pub struct FxHasher {
    hash: u64,
}

impl Default for FxHasher {
    #[inline]
    fn default() -> FxHasher {
        FxHasher {
            hash: process_seed(),
        }
    }
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail) ^ rest.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_inputs_hash_equal() {
        let h = |bytes: &[u8]| {
            let mut hasher = FxHasher::default();
            hasher.write(bytes);
            hasher.finish()
        };
        assert_eq!(h(b"hello world"), h(b"hello world"));
        assert_ne!(h(b"hello world"), h(b"hello worlds"));
        assert_ne!(h(b""), h(b"\0"));
    }

    #[test]
    fn hashers_start_from_the_process_seed() {
        // Seeded: the empty hash is the process seed, not a constant zero.
        let h = FxHasher::default().finish();
        assert_eq!(h, FxHasher::default().finish());
        assert_eq!(h, super::process_seed());
    }

    #[test]
    fn map_works_end_to_end() {
        let mut m: FxHashMap<String, u32> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert(format!("key{i}"), i);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get("key512"), Some(&512));
        assert_eq!(m.get("absent"), None);
    }
}
