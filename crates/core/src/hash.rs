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
    let (words, tail) = bytes.as_chunks::<8>();
    for &w in words {
        h = fold(h, u64::from_le_bytes(w));
    }
    if !tail.is_empty() {
        h = fold(h, tail_word(bytes, tail.len()));
    }
    h
}

/// The last `n` (1..=7) bytes of `bytes` as a little-endian word, zero
/// padded above, read with at most two loads: a key of eight bytes or more
/// loads its last word and shifts out the bytes before the tail; a shorter
/// key is all tail, read as two overlapping halves.
#[inline]
fn tail_word(bytes: &[u8], n: usize) -> u64 {
    if let Some(&last) = bytes.last_chunk::<8>() {
        u64::from_le_bytes(last) >> (64 - 8 * n)
    } else if let (Some(&lo), Some(&hi)) = (bytes.first_chunk::<4>(), bytes.last_chunk::<4>()) {
        u64::from(u32::from_le_bytes(lo)) | u64::from(u32::from_le_bytes(hi)) << (8 * (n - 4))
    } else if let (Some(&lo), Some(&hi)) = (bytes.first_chunk::<2>(), bytes.last()) {
        u64::from(u16::from_le_bytes(lo)) | u64::from(hi) << (8 * (n - 1))
    } else {
        bytes.first().map_or(0, |&b| u64::from(b))
    }
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

    /// Bytes that differ at every position and between lengths, high
    /// bits included.
    fn varied(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(151).wrapping_add((len as u8).wrapping_mul(29)) ^ 0x5c)
            .collect()
    }

    /// Values recorded before the tail moved to at-most-two-load reads:
    /// every tail length, with and without whole words before it, a 64 KiB
    /// page (what the spill manifest digests per payload) and a
    /// manifest-shaped document must hash exactly as they did, or table
    /// order, Spark partition indices and existing manifests would move.
    #[test]
    fn hash_bytes_is_unchanged_at_every_tail_length() {
        let golden: [u64; 25] = [
            0xa076_1d64_78bd_642f,
            0xc0d4_793a_5702_c3a6,
            0x34b1_0a07_5766_b21e,
            0x5e79_493d_3b55_dce7,
            0xab9e_bea9_70a2_e56a,
            0xfada_5709_b003_eca8,
            0x1696_8d4d_6e30_69fa,
            0x7d2a_9631_08fd_95a4,
            0xd9e9_b94f_6e42_07d3,
            0xd801_ffcc_96c3_18ed,
            0x979b_d246_ecc1_4c8f,
            0x9b56_d682_9863_9ccd,
            0xdc90_7b63_13dc_cb4c,
            0x1996_fceb_3c2b_1519,
            0x8c6f_40cd_3c87_77f1,
            0xcc99_15d6_a39f_cc30,
            0x1964_8cf3_662e_b95c,
            0x3f08_587f_0b68_ba9f,
            0x34a1_a6d3_5506_d821,
            0x7e1e_dce4_aa08_7d30,
            0x69ec_07a8_d94c_6c20,
            0xfabc_01ec_6de4_c08f,
            0x0e35_c225_118c_9267,
            0x1753_4680_b7cb_9eec,
            0x1c47_3678_4899_282b,
        ];
        for (len, want) in golden.into_iter().enumerate() {
            assert_eq!(hash_bytes(&varied(len)), want, "length {len}");
        }
        let page: Vec<u8> =
            (0..1u32 << 16).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
        assert_eq!(hash_bytes(&page), 0x536f_f2ab_a886_821c, "64 KiB page");
        let manifest = concat!(
            r#"{"schema":"deca-spill-manifest-v2","blocks":[{"id":3,"kind":"bytes","#,
            r#""len":1024,"mem_bytes":65536,"file_bytes":65536,"checksum":"5591cad5ddef9862"}]}"#
        );
        assert_eq!(manifest.len(), 148);
        assert_eq!(hash_bytes(manifest.as_bytes()), 0x5f39_da04_66eb_b93e, "manifest");
    }

    /// `str` keys through the std-map hasher (the Spark buffers' String
    /// keys), recorded with the values above.
    #[test]
    fn word_hasher_str_keys_are_unchanged_at_every_tail_length() {
        let golden: [u64; 25] = [
            0x48a7_0ca8_4cc5_3c5a,
            0x24ff_404d_c7f9_ec0e,
            0xb735_0648_9acf_956a,
            0x2931_62a8_40d1_a2be,
            0xa1e7_8303_89ac_934c,
            0x2742_8f46_9ce2_09a1,
            0xd09f_03ce_c17a_fee8,
            0x6d84_453f_013a_ee1b,
            0xd26f_0f09_6b1b_3726,
            0x0996_ed88_1671_d504,
            0xb901_07cc_b0c0_9428,
            0xe3cb_4cde_8f73_2263,
            0x0b4e_d0be_3179_1ba0,
            0x2fe1_5b9d_296f_9d85,
            0x68af_bcde_7424_8620,
            0xd0c8_d956_d9b5_59f1,
            0x1be4_2ae4_e6a9_e09c,
            0x9ec1_be89_2f42_371e,
            0xbbe7_c501_2189_6a02,
            0xe62f_eddc_6057_c3be,
            0xf06f_0aea_98a6_0ee7,
            0x8844_3f73_bf71_ede4,
            0x83e6_7377_259b_9ab1,
            0xa832_56fa_2585_9b82,
            0x08ef_a623_0414_f7bd,
        ];
        let build = WordHashBuilder::default();
        for (len, want) in golden.into_iter().enumerate() {
            let key: String = varied(len).iter().map(|&b| char::from(b'!' + b % 94)).collect();
            assert_eq!(build.hash_one(key.as_str()), want, "{key:?}");
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
