//! Page groups and the `page-info` structure (§4.3.1).
//!
//! A page group is the unit of lifetime-based reclamation: "when a
//! container's lifetime comes to an end, we simply release all the
//! references of the byte arrays in the container" (§2.3). Each group keeps
//! the paper's page-info bookkeeping: the page array, `endOffset` (start of
//! the unused part of the last page), and `curPage`/`curOffset` scan
//! cursors.
//!
//! Byte segments never span pages; an appender that does not fit in the
//! current page moves to a fresh one, leaving a wasted tail that the
//! page-size ablation measures. A segment *larger* than the standard page
//! size gets a dedicated page of exactly its size (the analogue of the
//! JVM's humongous allocations); subsequent appends open a fresh standard
//! page. Segments are addressed by [`SegPtr`] — the "pointers" stored in
//! shuffle pointer arrays and secondary containers (Figure 6/7).

use deca_heap::{Heap, OomError};

use crate::page::Page;

/// A pointer to a byte segment within a page group: `(page index, offset)`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct SegPtr {
    pub page: u32,
    pub off: u32,
}

/// Framing sentinel: a zero length-prefix marks "rest of page unused".
const END_OF_PAGE: u32 = 0;

/// A group of fixed-size pages owned by one data container (or shared by
/// several through the manager's reference counting).
#[derive(Debug)]
pub struct PageGroup {
    pages: Vec<Page>,
    /// Heap external-allocation ids, parallel to `pages`; empty while the
    /// group is swapped out.
    external_ids: Vec<usize>,
    page_size: usize,
    /// Start offset of the unused part of the last page (`endOffset`).
    end_offset: usize,
    /// Bytes lost to page tails that could not fit the next segment.
    wasted_bytes: usize,
}

impl PageGroup {
    pub fn new(page_size: usize) -> PageGroup {
        assert!(page_size >= 16, "page size too small to be useful");
        PageGroup {
            pages: Vec::new(),
            external_ids: Vec::new(),
            page_size,
            end_offset: 0,
            wasted_bytes: 0,
        }
    }

    pub fn page_size(&self) -> usize {
        self.page_size
    }

    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Total bytes of payload appended (excludes wasted tails).
    pub fn used_bytes(&self) -> usize {
        if self.pages.is_empty() {
            0
        } else {
            self.footprint_bytes()
                - (self.pages.last().expect("pages").len() - self.end_offset)
                - self.wasted_bytes
        }
    }

    /// Total bytes reserved from the heap budget.
    pub fn footprint_bytes(&self) -> usize {
        self.pages.iter().map(|p| p.len()).sum()
    }

    pub fn wasted_bytes(&self) -> usize {
        self.wasted_bytes
    }

    /// Reserve a segment of `len` bytes, adding a page if needed (each new
    /// page is registered with the heap as an external allocation, which
    /// may fail with `OomError` — the caller evicts or spills then). A
    /// failed reservation leaves the group untouched.
    pub fn reserve(&mut self, heap: &mut Heap, len: usize) -> Result<SegPtr, OomError> {
        let fits = !self.pages.is_empty()
            && self.end_offset + len <= self.pages.last().expect("pages").len();
        if !fits {
            // Oversized segments get a dedicated page of exactly their
            // size (rare: hub adjacency lists, huge RFST records).
            let page_bytes = len.max(self.page_size);
            let id = heap.register_external(page_bytes)?;
            if let Some(last) = self.pages.last() {
                self.wasted_bytes += last.len() - self.end_offset;
            }
            self.pages.push(Page::new(page_bytes));
            self.external_ids.push(id);
            self.end_offset = 0;
        }
        let ptr = SegPtr { page: (self.pages.len() - 1) as u32, off: self.end_offset as u32 };
        self.end_offset += len;
        Ok(ptr)
    }

    /// Append raw bytes as one segment.
    pub fn append(&mut self, heap: &mut Heap, bytes: &[u8]) -> Result<SegPtr, OomError> {
        let ptr = self.reserve(heap, bytes.len())?;
        self.pages[ptr.page as usize].write_bytes(ptr.off as usize, bytes);
        Ok(ptr)
    }

    /// Append a length-prefixed (framed) segment, for variable-size (RFST)
    /// records. The prefix stores `len + 1`; a zero prefix is the
    /// end-of-page sentinel the reader uses to advance.
    pub fn append_framed(&mut self, heap: &mut Heap, bytes: &[u8]) -> Result<SegPtr, OomError> {
        let total = bytes.len() + 4;
        let ptr = self.reserve(heap, total)?;
        let page = &mut self.pages[ptr.page as usize];
        page.write_i32(ptr.off as usize, (bytes.len() as u32 + 1) as i32);
        page.write_bytes(ptr.off as usize + 4, bytes);
        // Return a pointer to the payload, not the prefix.
        Ok(SegPtr { page: ptr.page, off: ptr.off + 4 })
    }

    /// Immutable view of a segment.
    #[inline]
    pub fn slice(&self, ptr: SegPtr, len: usize) -> &[u8] {
        self.pages[ptr.page as usize].slice(ptr.off as usize, len)
    }

    /// Mutable view of a segment (in-place aggregate reuse, §4.3.2).
    #[inline]
    pub fn slice_mut(&mut self, ptr: SegPtr, len: usize) -> &mut [u8] {
        self.pages[ptr.page as usize].slice_mut(ptr.off as usize, len)
    }

    #[inline]
    pub fn page(&self, i: usize) -> &Page {
        &self.pages[i]
    }

    #[inline]
    pub fn page_mut(&mut self, i: usize) -> &mut Page {
        &mut self.pages[i]
    }

    /// A sequential reader positioned at the first segment.
    pub fn reader(&self) -> GroupReader<'_> {
        GroupReader { group: self, cur_page: 0, cur_off: 0 }
    }

    /// Release every page's heap registration. Called by the manager when
    /// the group's reference count reaches zero or the group is swapped
    /// out: the whole space returns in O(#pages), no tracing.
    pub(crate) fn unregister_all(&mut self, heap: &mut Heap) {
        for id in self.external_ids.drain(..) {
            heap.unregister_external(id);
        }
    }

    /// Re-register all pages after a swap-in.
    pub(crate) fn register_all(&mut self, heap: &mut Heap) -> Result<(), OomError> {
        debug_assert!(self.external_ids.is_empty());
        let sizes: Vec<usize> = self.pages.iter().map(|p| p.len()).collect();
        for &bytes in &sizes {
            match heap.register_external(bytes) {
                Ok(id) => self.external_ids.push(id),
                Err(e) => {
                    // Roll back partial registration.
                    for id in self.external_ids.drain(..) {
                        heap.unregister_external(id);
                    }
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Drop the in-memory pages (after they have been spilled), keeping the
    /// group's metadata. Returns the dropped pages.
    pub(crate) fn take_pages(&mut self) -> Vec<Page> {
        std::mem::take(&mut self.pages)
    }

    pub(crate) fn restore_pages(&mut self, pages: Vec<Page>) {
        debug_assert!(self.pages.is_empty());
        self.pages = pages;
    }
}

/// Sequential scan over a group's segments (the `curPage`/`curOffset`
/// cursor of the page-info).
#[derive(Clone)]
pub struct GroupReader<'a> {
    group: &'a PageGroup,
    cur_page: usize,
    cur_off: usize,
}

impl<'a> GroupReader<'a> {
    /// Next fixed-size segment, or `None` at the end of the group.
    pub fn next_fixed(&mut self, len: usize) -> Option<SegPtr> {
        loop {
            if self.cur_page >= self.group.pages.len() {
                return None;
            }
            let in_last = self.cur_page + 1 == self.group.pages.len();
            let limit =
                if in_last { self.group.end_offset } else { self.group.pages[self.cur_page].len() };
            if self.cur_off + len <= limit {
                let ptr = SegPtr { page: self.cur_page as u32, off: self.cur_off as u32 };
                self.cur_off += len;
                return Some(ptr);
            }
            if in_last {
                return None;
            }
            self.cur_page += 1;
            self.cur_off = 0;
        }
    }

    /// Next framed (length-prefixed) segment: `(payload pointer, len)`.
    pub fn next_framed(&mut self) -> Option<(SegPtr, usize)> {
        loop {
            if self.cur_page >= self.group.pages.len() {
                return None;
            }
            let in_last = self.cur_page + 1 == self.group.pages.len();
            let limit =
                if in_last { self.group.end_offset } else { self.group.pages[self.cur_page].len() };
            if self.cur_off + 4 <= limit {
                let prefix = self.group.pages[self.cur_page].read_i32(self.cur_off) as u32;
                if prefix != END_OF_PAGE {
                    let len = (prefix - 1) as usize;
                    let ptr = SegPtr { page: self.cur_page as u32, off: (self.cur_off + 4) as u32 };
                    self.cur_off += 4 + len;
                    return Some((ptr, len));
                }
            }
            if in_last {
                return None;
            }
            self.cur_page += 1;
            self.cur_off = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deca_heap::HeapConfig;

    fn heap() -> Heap {
        Heap::new(HeapConfig::small())
    }

    #[test]
    fn append_and_scan_fixed() {
        let mut h = heap();
        let mut g = PageGroup::new(64);
        let mut ptrs = Vec::new();
        for i in 0..20u8 {
            // 24-byte records: 2 per 64-byte page (wastes 16-byte tails).
            let rec = [i; 24];
            ptrs.push(g.append(&mut h, &rec).unwrap());
        }
        assert_eq!(g.page_count(), 10);
        assert_eq!(g.used_bytes(), 20 * 24);
        assert_eq!(g.wasted_bytes(), 9 * 16);
        assert_eq!(h.external_count(), 10);

        let mut r = g.reader();
        for i in 0..20u8 {
            let ptr = r.next_fixed(24).expect("segment");
            assert_eq!(g.slice(ptr, 24), &[i; 24]);
        }
        assert!(r.next_fixed(24).is_none());
        let _ = ptrs;
    }

    #[test]
    fn framed_variable_records() {
        let mut h = heap();
        let mut g = PageGroup::new(64);
        let recs: Vec<Vec<u8>> = (1..12).map(|i| vec![i as u8; i]).collect();
        for rec in &recs {
            g.append_framed(&mut h, rec).unwrap();
        }
        let mut r = g.reader();
        for rec in &recs {
            let (ptr, len) = r.next_framed().expect("segment");
            assert_eq!(len, rec.len());
            assert_eq!(g.slice(ptr, len), rec.as_slice());
        }
        assert!(r.next_framed().is_none());
    }

    #[test]
    fn empty_payload_frames_roundtrip() {
        let mut h = heap();
        let mut g = PageGroup::new(64);
        g.append_framed(&mut h, &[]).unwrap();
        g.append_framed(&mut h, &[7]).unwrap();
        let mut r = g.reader();
        assert_eq!(r.next_framed().unwrap().1, 0);
        let (p, l) = r.next_framed().unwrap();
        assert_eq!(l, 1);
        assert_eq!(g.slice(p, 1), &[7]);
        assert!(r.next_framed().is_none());
    }

    #[test]
    fn in_place_mutation() {
        let mut h = heap();
        let mut g = PageGroup::new(128);
        let ptr = g.append(&mut h, &[0u8; 8]).unwrap();
        g.slice_mut(ptr, 8).copy_from_slice(&42f64.to_le_bytes());
        let mut buf = [0u8; 8];
        buf.copy_from_slice(g.slice(ptr, 8));
        assert_eq!(f64::from_le_bytes(buf), 42.0);
    }

    #[test]
    fn release_returns_heap_budget() {
        let mut h = heap();
        let before = h.external_bytes();
        let mut g = PageGroup::new(1024);
        for _ in 0..10 {
            g.append(&mut h, &[1u8; 512]).unwrap();
        }
        assert!(h.external_bytes() > before);
        g.unregister_all(&mut h);
        assert_eq!(h.external_bytes(), before);
    }

    #[test]
    fn oversized_segments_get_dedicated_pages() {
        let mut h = heap();
        let mut g = PageGroup::new(64);
        g.append(&mut h, &[1u8; 10]).unwrap();
        let big = vec![7u8; 300]; // > page size: dedicated page
        let ptr = g.append(&mut h, &big).unwrap();
        assert_eq!(g.slice(ptr, 300), big.as_slice());
        g.append(&mut h, &[2u8; 10]).unwrap();
        assert_eq!(g.page_count(), 3);
        assert_eq!(g.footprint_bytes(), 64 + 300 + 64);
        // Sequential scan still works across heterogeneous pages.
        let mut r = g.reader();
        assert_eq!(g.slice(r.next_fixed(10).unwrap(), 10), &[1u8; 10]);
        assert_eq!(g.slice(r.next_fixed(300).unwrap(), 300), big.as_slice());
        assert_eq!(g.slice(r.next_fixed(10).unwrap(), 10), &[2u8; 10]);
        assert!(r.next_fixed(10).is_none());
    }
}
