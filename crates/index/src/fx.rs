//! A fixed, fast hasher for the indexes' internal maps.
//!
//! The maps key on small integers (segment ids, cell coordinates) and
//! sit on the hot path of every insert, remove and search, where the
//! standard library's randomly keyed SipHash costs more than the lookup
//! itself. This is the multiply-rotate scheme of rustc's `FxHasher`: one
//! rotate, xor and multiply per word, with no per-process key, so the
//! hash of a key is the same in every run. No output depends on it —
//! the maps are only probed by key, never iterated for results.
//!
//! A fixed hasher gives up SipHash's defence against keys crafted to
//! collide, which is safe here because no key comes from outside the
//! program: segment ids are handed out by the editors, and a cell id is
//! a grid position, so the keys a dataset's coordinates can reach are
//! bounded by the grid size.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier of the Fx scheme, as in rustc: 2⁶⁴/π rounded up to odd.
const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// Word-at-a-time multiply-rotate hasher (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
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
    fn write_u8(&mut self, i: u8) {
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
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`]: `HashMap<K, V, FxBuild>`.
pub type FxBuild = BuildHasherDefault<FxHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};
    use trajdp_model::CellId;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuild::default().hash_one(v)
    }

    #[test]
    fn hashes_are_fixed_across_builders() {
        // No per-process key: a fresh builder reproduces the same hash,
        // and the value is pinned so a scheme change shows up here.
        assert_eq!(hash_of(&7u64), 7u64.wrapping_mul(SEED));
        let c = CellId::new(3, 5, 6);
        assert_eq!(hash_of(&c), hash_of(&CellId::new(3, 5, 6)));
        assert_ne!(hash_of(&c), hash_of(&CellId::new(3, 6, 5)));
    }

    #[test]
    fn byte_writes_cover_the_tail() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(a.finish(), b.finish());
    }
}
