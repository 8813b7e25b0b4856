//! Object references and header encoding.
//!
//! An [`ObjRef`] packs a space id and a word offset into one `u64`. The
//! all-zero value is the null reference, which is convenient because freshly
//! allocated object slots are zeroed (null fields / zero primitives), like
//! the JVM's default field values.

use crate::space::SpaceId;

/// A (possibly null) reference to a heap object.
///
/// Encoding: `0` is null; otherwise bits 62..64 hold the space id and bits
/// 0..62 hold `word_offset + 1` within that space's arena (the +1 keeps the
/// encoding nonzero for offset 0 in space 0).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct ObjRef(u64);

impl ObjRef {
    pub const NULL: ObjRef = ObjRef(0);

    #[inline]
    pub(crate) fn new(space: SpaceId, word_offset: usize) -> ObjRef {
        let off = word_offset as u64 + 1;
        debug_assert!(off < (1 << 62));
        ObjRef((space as u64) << 62 | off)
    }

    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    #[inline]
    pub(crate) fn space(self) -> SpaceId {
        debug_assert!(!self.is_null());
        SpaceId::from_bits((self.0 >> 62) as u8)
    }

    #[inline]
    pub(crate) fn offset(self) -> usize {
        debug_assert!(!self.is_null());
        ((self.0 & ((1 << 62) - 1)) - 1) as usize
    }

    #[inline]
    pub(crate) fn raw(self) -> u64 {
        self.0
    }

    #[inline]
    pub(crate) fn from_raw(raw: u64) -> ObjRef {
        ObjRef(raw)
    }
}

impl Default for ObjRef {
    fn default() -> Self {
        ObjRef::NULL
    }
}

/// Header word 0 layout:
/// ```text
/// bits 0..32   class id
/// bits 32..40  GC age (number of minor collections survived)
/// bit  40      mark (used by full collections)
/// bit  41      remembered (object is in the remembered set)
/// bit  42      forwarded (header word 1 holds the forwarding reference)
/// ```
/// Header word 1 holds the array length for array objects, or the raw
/// forwarding reference while `forwarded` is set during a collection.
#[derive(Copy, Clone, Debug)]
pub(crate) struct Header(pub u64);

const AGE_SHIFT: u32 = 32;
const AGE_MASK: u64 = 0xff << AGE_SHIFT;
const MARK_BIT: u64 = 1 << 40;
const REMEMBERED_BIT: u64 = 1 << 41;
const FORWARDED_BIT: u64 = 1 << 42;

impl Header {
    #[inline]
    pub fn new(class_id: u32) -> Header {
        Header(class_id as u64)
    }

    #[inline]
    pub fn class_id(self) -> u32 {
        (self.0 & 0xffff_ffff) as u32
    }

    pub fn age(self) -> u8 {
        ((self.0 & AGE_MASK) >> AGE_SHIFT) as u8
    }

    pub fn with_age(self, age: u8) -> Header {
        Header((self.0 & !AGE_MASK) | ((age as u64) << AGE_SHIFT))
    }

    pub fn is_marked(self) -> bool {
        self.0 & MARK_BIT != 0
    }

    pub fn with_mark(self, m: bool) -> Header {
        if m {
            Header(self.0 | MARK_BIT)
        } else {
            Header(self.0 & !MARK_BIT)
        }
    }

    pub fn is_remembered(self) -> bool {
        self.0 & REMEMBERED_BIT != 0
    }

    pub fn with_remembered(self, r: bool) -> Header {
        if r {
            Header(self.0 | REMEMBERED_BIT)
        } else {
            Header(self.0 & !REMEMBERED_BIT)
        }
    }

    pub fn is_forwarded(self) -> bool {
        self.0 & FORWARDED_BIT != 0
    }

    pub fn forwarded() -> Header {
        Header(FORWARDED_BIT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_roundtrip() {
        assert!(ObjRef::NULL.is_null());
        assert_eq!(ObjRef::from_raw(0), ObjRef::NULL);
        assert_eq!(ObjRef::default(), ObjRef::NULL);
    }

    #[test]
    fn ref_encoding_roundtrip() {
        for space in [SpaceId::Eden, SpaceId::S0, SpaceId::S1, SpaceId::Old] {
            for off in [0usize, 1, 17, 1 << 20] {
                let r = ObjRef::new(space, off);
                assert!(!r.is_null());
                assert_eq!(r.space(), space);
                assert_eq!(r.offset(), off);
            }
        }
    }

    #[test]
    fn header_bits() {
        let h = Header::new(42);
        assert_eq!(h.class_id(), 42);
        assert_eq!(h.age(), 0);
        let h = h.with_age(7).with_mark(true).with_remembered(true);
        assert_eq!(h.class_id(), 42);
        assert_eq!(h.age(), 7);
        assert!(h.is_marked());
        assert!(h.is_remembered());
        assert!(!h.is_forwarded());
        let h = h.with_mark(false).with_remembered(false);
        assert!(!h.is_marked());
        assert!(!h.is_remembered());
        assert!(Header::forwarded().is_forwarded());
    }
}
