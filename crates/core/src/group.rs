//! Page groups and the `page-info` structure (§4.3.1).
//!
//! A page group is the unit of lifetime-based reclamation: "when a
//! container's lifetime comes to an end, we simply release all the
//! references of the byte arrays in the container" (§2.3). Each group keeps
//! the paper's page-info bookkeeping: the page array and `endOffset` (start
//! of the unused part of the last page). Its `curPage`/`curOffset` scan
//! cursor becomes a walk over each page's used prefix, a page at a time.
//!
//! Byte segments never span pages; an appender that does not fit in the
//! current page moves to a fresh one, leaving a wasted tail that the
//! page-size ablation measures. A segment *larger* than the standard page
//! size gets a dedicated page of exactly its size (the analogue of the
//! JVM's humongous allocations); subsequent appends open a fresh standard
//! page. Segments are addressed by [`SegPtr`] — the "pointers" stored in
//! shuffle pointer arrays (Figure 6b).

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

/// A group of fixed-size pages owned by one data container.
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

    /// Each page's used prefix, in page order: the whole page, except the
    /// last, which ends at `endOffset`. The record walks below run over
    /// these slices a page at a time.
    pub fn used_pages(&self) -> impl Iterator<Item = &[u8]> {
        let last = self.pages.len().saturating_sub(1);
        let pages = self.pages.iter().enumerate();
        pages.map(move |(i, p)| if i == last { &p.bytes()[..self.end_offset] } else { p.bytes() })
    }

    /// Every segment of a group of `size`-byte (unframed, SFST) records, in
    /// append order. Segments never span pages and a page's tail is shorter
    /// than a record, so each used prefix splits into whole records; an
    /// oversized record fills its own dedicated page.
    pub fn fixed_records(&self, size: usize) -> impl Iterator<Item = &[u8]> {
        self.used_pages().flat_map(move |page| page.chunks_exact(size))
    }

    /// Every framed (RFST) segment's payload, in append order. A page's
    /// frames end where its used prefix has no room for another length
    /// prefix or the prefix is the end-of-page sentinel.
    pub fn framed_records(&self) -> impl Iterator<Item = &[u8]> {
        self.used_pages().flat_map(|mut page| {
            std::iter::from_fn(move || {
                let (prefix, rest) = page.split_first_chunk()?;
                let prefix = u32::from_le_bytes(*prefix);
                let (payload, rest) =
                    (prefix != END_OF_PAGE).then(|| rest.split_at(prefix as usize - 1))?;
                page = rest;
                Some(payload)
            })
        })
    }

    /// Release every page's heap registration. Called by the manager when
    /// the group's owner releases it or the group is swapped out: the
    /// whole space returns in O(#pages), no tracing.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::MemoryManager;
    use deca_check::property::{check, gens, Config};
    use deca_heap::HeapConfig;

    fn heap() -> Heap {
        Heap::new(HeapConfig::small())
    }

    #[test]
    fn append_and_scan_fixed() {
        let mut h = heap();
        let mut g = PageGroup::new(64);
        for i in 0..20u8 {
            // 24-byte records: 2 per 64-byte page (wastes 16-byte tails).
            g.append(&mut h, &[i; 24]).unwrap();
        }
        assert_eq!(g.page_count(), 10);
        assert_eq!(g.used_bytes(), 20 * 24);
        assert_eq!(g.wasted_bytes(), 9 * 16);
        assert_eq!(h.external_count(), 10);
        let want: Vec<[u8; 24]> = (0..20u8).map(|i| [i; 24]).collect();
        assert!(g.fixed_records(24).eq(want.iter().map(|r| &r[..])));
    }

    #[test]
    fn framed_variable_records() {
        let mut h = heap();
        let mut g = PageGroup::new(64);
        let recs: Vec<Vec<u8>> = (1..12).map(|i| vec![i as u8; i]).collect();
        for rec in &recs {
            g.append_framed(&mut h, rec).unwrap();
        }
        assert!(g.framed_records().eq(recs.iter().map(Vec::as_slice)));
    }

    #[test]
    fn empty_payload_frames_roundtrip() {
        let mut h = heap();
        let mut g = PageGroup::new(64);
        g.append_framed(&mut h, &[]).unwrap();
        g.append_framed(&mut h, &[7]).unwrap();
        assert!(g.framed_records().eq([&[][..], &[7]]));
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
        // A walk sees the first page whole (its tail unused), the dedicated
        // page exactly, and the last page up to `endOffset`.
        let pages: Vec<&[u8]> = g.used_pages().collect();
        assert_eq!(pages[0][..10], [1u8; 10]);
        assert_eq!(pages[1], big.as_slice());
        assert_eq!(pages[2], [2u8; 10]);
    }

    /// The `curPage`/`curOffset` reader the page walks replaced: one
    /// segment per call, re-deriving the page limit every time. Kept as
    /// the walks' oracle.
    struct OracleReader<'a> {
        group: &'a PageGroup,
        cur_page: usize,
        cur_off: usize,
    }

    impl<'a> OracleReader<'a> {
        fn limit(&self) -> (usize, bool) {
            let in_last = self.cur_page + 1 == self.group.pages.len();
            let page_len = self.group.pages[self.cur_page].len();
            (if in_last { self.group.end_offset } else { page_len }, in_last)
        }

        fn next_fixed(&mut self, len: usize) -> Option<&'a [u8]> {
            while self.cur_page < self.group.pages.len() {
                let (limit, in_last) = self.limit();
                if self.cur_off + len <= limit {
                    let ptr = SegPtr { page: self.cur_page as u32, off: self.cur_off as u32 };
                    self.cur_off += len;
                    return Some(self.group.slice(ptr, len));
                }
                if in_last {
                    return None;
                }
                self.cur_page += 1;
                self.cur_off = 0;
            }
            None
        }

        fn next_framed(&mut self) -> Option<&'a [u8]> {
            while self.cur_page < self.group.pages.len() {
                let (limit, in_last) = self.limit();
                if self.cur_off + 4 <= limit {
                    let prefix = self.group.pages[self.cur_page].read_i32(self.cur_off) as u32;
                    if prefix != END_OF_PAGE {
                        let len = (prefix - 1) as usize;
                        let ptr =
                            SegPtr { page: self.cur_page as u32, off: self.cur_off as u32 + 4 };
                        self.cur_off += 4 + len;
                        return Some(self.group.slice(ptr, len));
                    }
                }
                if in_last {
                    return None;
                }
                self.cur_page += 1;
                self.cur_off = 0;
            }
            None
        }
    }

    const PAGE: usize = 64;

    /// Build one group through a manager (fixed `size`-byte records, or
    /// framed records of the given payload lengths), then check the walks
    /// against the oracle on the fresh group and again after a swap-out and
    /// the swap-in of the next access.
    fn walks_match_the_oracle(fixed: Option<usize>, lens: &[usize]) -> Result<(), String> {
        let mut heap = heap();
        let dir = crate::manager::tests::tempdir::TempDir::new();
        let mut mm = MemoryManager::new(PAGE, dir.path.clone());
        let id = mm.create_group();
        for (i, &len) in lens.iter().enumerate() {
            let rec: Vec<u8> = (0..fixed.unwrap_or(len)).map(|j| (i * 31 + j) as u8).collect();
            mm.with_group_mut(&id, &mut heap, |g, h| match fixed {
                Some(_) => g.append(h, &rec),
                None => g.append_framed(h, &rec),
            })
            .map_err(|e| format!("append: {e:?}"))?;
        }
        for pass in ["fresh", "swapped in"] {
            mm.with_group(&id, &mut heap, |g| {
                let mut r = OracleReader { group: g, cur_page: 0, cur_off: 0 };
                let (walked, oracle): (Vec<_>, Vec<_>) = match fixed {
                    Some(size) => (
                        g.fixed_records(size).collect(),
                        std::iter::from_fn(|| r.next_fixed(size)).collect(),
                    ),
                    None => (
                        g.framed_records().collect(),
                        std::iter::from_fn(|| r.next_framed()).collect(),
                    ),
                };
                deca_check::prop_assert_eq!(walked.len(), lens.len(), "{pass}");
                deca_check::prop_assert_eq!(walked, oracle, "{pass}");
                Ok(())
            })
            .map_err(|e| format!("{pass}: {e:?}"))??;
            mm.swap_out(&id, &mut heap).map_err(|e| format!("swap-out: {e:?}"))?;
        }
        mm.release(id, &mut heap);
        Ok(())
    }

    /// SFST groups of every record size up to three pages: page tails,
    /// single-record pages and dedicated oversized pages all occur.
    #[test]
    fn fixed_walk_yields_the_oracles_records() {
        let gen = gens::pair(gens::usize_in(1..3 * PAGE), gens::usize_in(0..90));
        check(Config::with_cases(96), gen, |&(size, count)| {
            walks_match_the_oracle(Some(size), &vec![size; count])
        });
    }

    /// Framed groups with empty payloads, page tails too short for a
    /// prefix, and (one frame in six, tripled) oversized frames.
    #[test]
    fn framed_walk_yields_the_oracles_records() {
        let frame = gens::pair(gens::usize_in(0..PAGE), gens::usize_in(0..6));
        check(Config::with_cases(96), gens::vec_of(frame, 0..60), |frames| {
            let lens: Vec<usize> =
                frames.iter().map(|&(len, k)| if k == 0 { 3 * len } else { len }).collect();
            walks_match_the_oracle(None, &lens)
        });
    }
}
