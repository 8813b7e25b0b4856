//! The one byte hash of the system: a word-at-a-time fold.
//!
//! The seed is mixed with one 64×64→128-bit multiply per 8-byte
//! little-endian word (the tail zero-padded) whose halves are XORed. Both
//! ends of the result are mixed: the low bits pick a key's home slot, the
//! top seven its control tag. It has three users: the Deca shuffle tables
//! here, the std SwissTable behind the Spark shuffle buffers, and the
//! engine cache's spill manifest, which digests each cold payload and the
//! manifest document with [`hash_bytes`].
//!
//! The hash is unkeyed, like the JVM's `String.hashCode`: tables built on
//! it are not hardened against keys crafted to collide, and a digest made
//! with it catches accidental corruption but is no MAC. Every key and
//! payload hashed here is generated by the program itself.

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0xa076_1d64_78bd_642f;
const MUL: u64 = 0xe703_7ed1_a0b4_28db;

#[inline]
fn fold(h: u64, word: u64) -> u64 {
    let r = u128::from(h ^ word) * u128::from(MUL);
    (r as u64) ^ ((r >> 64) as u64)
}

/// `h` with every word of `bytes` folded in.
#[inline]
fn fold_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = fold(h, u64::from_le_bytes(w.try_into().expect("8-byte word")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        h = fold(h, tail.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b)));
    }
    h
}

/// Hash of a key's bytes: the length seeds the fold.
#[inline]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    fold_bytes(SEED ^ bytes.len() as u64, bytes)
}

/// A [`Hasher`] over the same fold, for std maps: `write` folds a byte
/// slice as [`hash_bytes`] does (seeded with its length), and each integer
/// write folds one word.
#[derive(Clone, Copy, Debug)]
pub struct WordHasher(u64);

impl Default for WordHasher {
    fn default() -> WordHasher {
        WordHasher(SEED)
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fold_bytes(self.0 ^ bytes.len() as u64, bytes);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    /// Also what `i64` keys hash through (`write_i64` defaults to it).
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0 = fold(self.0, i);
    }
}

/// The `BuildHasher` of a std map keyed through [`WordHasher`].
pub type WordHashBuilder = BuildHasherDefault<WordHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    /// Values `hash_bytes` returned before it moved into this module: the
    /// Deca tables' slot placement and iteration order depend on them.
    #[test]
    fn hash_bytes_matches_its_recorded_values() {
        let long: Vec<u8> = (0..41).collect();
        let golden: [(&[u8], u64); 8] = [
            (b"", 0xa076_1d64_78bd_642f),
            (b"a", 0xff64_274e_41fd_a6a3),
            (b"w12345xxx", 0x04bb_6f44_4a44_be3d),
            (&7i64.to_le_bytes(), 0x96c8_5cca_c0e9_266c),
            (&(-1i64).to_le_bytes(), 0x97e9_d6af_a5c6_b60f),
            (b"exactly-sixteen!", 0x9ac6_eff4_3973_abd4),
            ("na\u{ef}ve \u{1d11e} clef".as_bytes(), 0x415b_469e_3cb2_b6ba),
            (&long, 0x5591_cad5_ddef_9862),
        ];
        for (bytes, want) in golden {
            assert_eq!(hash_bytes(bytes), want, "{bytes:?}");
        }
    }

    #[test]
    fn word_hasher_folds_a_word_per_integer_and_a_slice_as_hash_bytes() {
        let build = WordHashBuilder::default();
        let mut h = build.build_hasher();
        h.write(b"word");
        assert_eq!(h.finish(), hash_bytes(b"word"));
        // An integer key hashes as one fold, and distinct keys spread over
        // both ends of the hash.
        let hashes: Vec<u64> = (0..1024i64).map(|k| build.hash_one(k)).collect();
        assert_eq!(hashes[7], fold(SEED, 7));
        let low: std::collections::HashSet<u64> = hashes.iter().map(|h| h & 1023).collect();
        let top: std::collections::HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        assert!(low.len() > 600 && top.len() == 128, "low {} top {}", low.len(), top.len());
        // A str hashes its bytes then the 0xff terminator std appends.
        assert_eq!(build.hash_one("word"), fold(hash_bytes(b"word"), 0xff));
    }
}
