//! A memory page: a fixed-size byte array, read and written as byte
//! slices (plus the little-endian `i32` of a framed record's prefix).
//!
//! Pages are "unified byte arrays with a common fixed size" (§4.3.1). The
//! page size trade-off the paper describes — too small ⇒ many pages ⇒ GC
//! trace overhead; too large ⇒ unused tail space — is exercised by the
//! page-size ablation bench.

/// One fixed-size byte page.
#[derive(Clone, Debug)]
pub struct Page {
    data: Box<[u8]>,
}

impl Page {
    pub fn new(size: usize) -> Page {
        Page { data: vec![0u8; size].into_boxed_slice() }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    #[inline]
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    #[inline]
    pub fn slice(&self, off: usize, len: usize) -> &[u8] {
        &self.data[off..off + len]
    }

    #[inline]
    pub fn slice_mut(&mut self, off: usize, len: usize) -> &mut [u8] {
        &mut self.data[off..off + len]
    }

    pub fn write_bytes(&mut self, off: usize, src: &[u8]) {
        self.data[off..off + src.len()].copy_from_slice(src);
    }

    #[cfg(test)]
    pub fn read_i32(&self, off: usize) -> i32 {
        i32::from_le_bytes(self.data[off..off + 4].try_into().expect("4 bytes"))
    }

    pub fn write_i32(&mut self, off: usize, v: i32) {
        self.data[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrips() {
        let mut p = Page::new(64);
        p.write_i32(16, -42);
        p.write_i32(60, i32::MAX);
        assert_eq!(p.read_i32(16), -42);
        assert_eq!(p.read_i32(60), i32::MAX);
        assert_eq!(p.slice(16, 4), (-42i32).to_le_bytes());
        assert_eq!(p.len(), 64);
    }

    #[test]
    fn bulk_bytes() {
        let mut p = Page::new(32);
        p.write_bytes(4, &[1, 2, 3, 4, 5]);
        assert_eq!(p.slice(4, 5), &[1, 2, 3, 4, 5]);
        p.slice_mut(4, 2).copy_from_slice(&[9, 8]);
        assert_eq!(p.slice(4, 5), &[9, 8, 3, 4, 5]);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_read_panics() {
        let p = Page::new(8);
        p.read_i32(6);
    }
}
