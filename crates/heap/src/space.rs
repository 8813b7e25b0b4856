//! Heap spaces: bump-allocated word arenas with nominal-byte accounting.
//!
//! The arena stores one `u64` word per header word, field, or array element.
//! Capacity checks use the *nominal* JVM-accounted byte size of objects, so
//! collection triggers fire at the same relative heap pressure as on a real
//! JVM, independently of the arena's internal representation.

/// Identity of a heap space. The values are the 2-bit tags used inside
/// [`crate::ObjRef`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum SpaceId {
    Eden = 0,
    S0 = 1,
    S1 = 2,
    Old = 3,
}

impl SpaceId {
    #[inline]
    pub fn from_bits(b: u8) -> SpaceId {
        match b {
            0 => SpaceId::Eden,
            1 => SpaceId::S0,
            2 => SpaceId::S1,
            3 => SpaceId::Old,
            _ => unreachable!("invalid space tag {b}"),
        }
    }
}

/// A bump-allocated arena of words with nominal-byte capacity accounting.
/// `Clone` is the concurrent marker's snapshot operation (see
/// `crate::concurrent`).
#[derive(Debug, Clone)]
pub struct Space {
    pub(crate) words: Vec<u64>,
    /// Nominal bytes currently allocated (JVM accounting).
    nominal_used: usize,
    /// Nominal byte capacity.
    nominal_cap: usize,
}

impl Space {
    pub fn new(nominal_cap: usize) -> Space {
        Space { words: Vec::new(), nominal_used: 0, nominal_cap }
    }

    /// Whether an object of `nominal_bytes` fits without collection.
    #[inline]
    pub fn fits(&self, nominal_bytes: usize) -> bool {
        self.nominal_used + nominal_bytes <= self.nominal_cap
    }

    /// Bump-allocate `slot_words` payload words plus a two-word header,
    /// charging `nominal_bytes` against the capacity. Overcommit is
    /// permitted: promotion during a minor collection may exceed the old
    /// generation's budget, which the heap resolves with a full collection
    /// (or an `OomError`) immediately afterwards. Returns the word offset
    /// of the new header.
    pub fn bump(&mut self, slot_words: usize, nominal_bytes: usize) -> usize {
        let start = self.words.len();
        self.words.resize(start + 2 + slot_words, 0);
        self.nominal_used += nominal_bytes;
        start
    }

    /// The mutator's bump (the TLAB bump of a JIT-compiled `new`): append
    /// an object's two header words and `slot_words` zeroed payload words,
    /// charging `nominal_bytes`. A small payload is zeroed word by word in
    /// the caller's code, without a `memset` call; only a large array's
    /// goes through [`Vec::resize`].
    #[inline]
    pub(crate) fn bump_object(
        &mut self,
        header: [u64; 2],
        slot_words: usize,
        nominal_bytes: usize,
    ) -> usize {
        const INLINE_ZEROED_WORDS: usize = 16;
        let start = self.words.len();
        self.words.extend_from_slice(&header);
        if slot_words <= INLINE_ZEROED_WORDS {
            self.words.reserve(slot_words);
            for _ in 0..slot_words {
                self.words.push(0);
            }
        } else {
            self.words.resize(start + 2 + slot_words, 0);
        }
        self.nominal_used += nominal_bytes;
        start
    }

    /// Drop all objects, keeping the arena's allocation for reuse.
    pub fn reset(&mut self) {
        self.words.clear();
        self.nominal_used = 0;
    }

    pub fn nominal_used(&self) -> usize {
        self.nominal_used
    }

    /// Adjust nominal accounting for in-place (free-list) allocation and
    /// sweeping, where the arena length does not change.
    pub fn add_nominal(&mut self, bytes: usize) {
        self.nominal_used += bytes;
    }

    pub fn sub_nominal(&mut self, bytes: usize) {
        self.nominal_used = self.nominal_used.saturating_sub(bytes);
    }

    /// Truncate the arena to `top_words` (reclaiming a trailing hole after
    /// a sweep).
    pub fn truncate(&mut self, top_words: usize) {
        self.words.truncate(top_words);
    }

    #[inline]
    pub fn nominal_cap(&self) -> usize {
        self.nominal_cap
    }

    /// Word offset one past the last allocated object (the Cheney scan
    /// frontier).
    pub fn top(&self) -> usize {
        self.words.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_and_reset() {
        let mut s = Space::new(100);
        assert!(s.fits(64));
        let a = s.bump(3, 40);
        let b = s.bump(1, 24);
        assert_eq!(a, 0);
        assert_eq!(b, 5);
        assert_eq!(s.nominal_used(), 64);
        assert!(s.fits(36));
        assert!(!s.fits(37));
        s.reset();
        assert_eq!(s.nominal_used(), 0);
        assert_eq!(s.top(), 0);
    }
}
