//! Secondary containers over a primary's page group (§4.3.3, Figure 7a).
//!
//! When objects are fully decomposable and shared by several containers,
//! the primary container owns the page group and each secondary stores
//! only *pointers* into it, plus a `depPages` reference that keeps the
//! group alive (reference counting). Two cases:
//!
//! * same objects, no specific order ⇒ share the page-info outright
//!   ([`crate::MemoryManager::retain`] — no per-object state at all);
//! * a *different ordering or subset* ⇒ a [`SecondaryView`]: an ordered
//!   pointer array into the primary's pages, with its own lifetime.
//!
//! Releasing the secondary drops its pointer array and its `depPages`
//! reference; the primary's bytes live on until every holder is gone.

use deca_heap::Heap;

use crate::group::SegPtr;
use crate::manager::{GroupId, MemError, MemoryManager};

/// An ordered pointer view over another container's page group.
#[derive(Debug)]
pub struct SecondaryView {
    /// The primary's page group (`depPages`): retained on creation.
    dep: GroupId,
    /// `(segment, len)` pointers, in this container's own order.
    ptrs: Vec<(SegPtr, u32)>,
    released: bool,
}

impl SecondaryView {
    /// Create a view over `primary`'s group, incrementing its reference
    /// count so the bytes outlive the primary's release if needed.
    pub fn new(mm: &mut MemoryManager, primary_group: GroupId) -> SecondaryView {
        mm.retain(primary_group);
        SecondaryView { dep: primary_group, ptrs: Vec::new(), released: false }
    }

    pub fn len(&self) -> usize {
        self.ptrs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ptrs.is_empty()
    }

    /// Reference a segment of the primary (no bytes are copied).
    pub fn push(&mut self, ptr: SegPtr, len: usize) {
        self.ptrs.push((ptr, len as u32));
    }

    /// Re-order the view by a key extracted from each segment's bytes —
    /// the case that makes a pointer view necessary at all (a plain
    /// page-info copy shares the primary's order).
    pub fn sort_by_key<K: Ord>(
        &mut self,
        mm: &mut MemoryManager,
        heap: &mut Heap,
        key_of: impl Fn(&[u8]) -> K,
    ) -> Result<(), MemError> {
        let ptrs = &mut self.ptrs;
        mm.with_group(self.dep, heap, |g| {
            ptrs.sort_by_key(|(ptr, len)| key_of(g.slice(*ptr, *len as usize)));
        })
    }

    /// Visit segments in the view's order.
    pub fn for_each(
        &self,
        mm: &mut MemoryManager,
        heap: &mut Heap,
        mut f: impl FnMut(&[u8]),
    ) -> Result<(), MemError> {
        let ptrs = &self.ptrs;
        mm.with_group(self.dep, heap, |g| {
            for (ptr, len) in ptrs {
                f(g.slice(*ptr, *len as usize));
            }
        })
    }

    /// Drop the pointer array and the `depPages` reference.
    pub fn release(&mut self, mm: &mut MemoryManager, heap: &mut Heap) {
        if !self.released {
            mm.release(self.dep, heap);
            self.ptrs = Vec::new();
            self.released = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::DecaCacheBlock;
    use crate::record::DecaRecord;
    use deca_heap::HeapConfig;
    use std::path::PathBuf;

    fn setup() -> (Heap, MemoryManager) {
        let dir: PathBuf = std::env::temp_dir().join(format!(
            "deca-secondary-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        (Heap::new(HeapConfig::small()), MemoryManager::new(4096, dir))
    }

    /// Build a primary cache block and a differently-ordered secondary
    /// view over the same bytes (Figure 7a).
    #[test]
    fn reordered_view_shares_bytes() {
        let (mut heap, mut mm) = setup();
        let mut primary = DecaCacheBlock::new::<(i64, f64)>(&mut mm);
        let recs: Vec<(i64, f64)> = [5i64, 2, 9, 1, 7].iter().map(|&k| (k, k as f64)).collect();
        for r in &recs {
            primary.append(&mut mm, &mut heap, r).unwrap();
        }
        let footprint_before = heap.external_bytes();

        // Collect pointers by scanning the primary's group.
        let mut view = SecondaryView::new(&mut mm, primary.group());
        let size = <(i64, f64)>::FIXED_SIZE.unwrap();
        mm.with_group(primary.group(), &mut heap, |g| {
            let segs = |(page, used): (usize, &[u8])| {
                (0..used.len() / size)
                    .map(move |k| SegPtr { page: page as u32, off: (k * size) as u32 })
            };
            g.used_pages().enumerate().flat_map(segs).collect::<Vec<_>>()
        })
        .unwrap()
        .into_iter()
        .for_each(|p| view.push(p, size));

        // No extra pages were allocated for the secondary.
        assert_eq!(heap.external_bytes(), footprint_before);

        // The secondary imposes its own (sorted) order.
        view.sort_by_key(&mut mm, &mut heap, i64::decode).unwrap();
        let mut order = Vec::new();
        view.for_each(&mut mm, &mut heap, |bytes| {
            order.push(<(i64, f64)>::decode(bytes).0);
        })
        .unwrap();
        assert_eq!(order, vec![1, 2, 5, 7, 9]);

        // Releasing the *primary* keeps the bytes alive through depPages.
        primary.release(&mut mm, &mut heap);
        assert!(heap.external_bytes() > 0, "secondary still references the group");
        let mut still = 0;
        view.for_each(&mut mm, &mut heap, |_| still += 1).unwrap();
        assert_eq!(still, 5);

        // Releasing the secondary frees everything.
        view.release(&mut mm, &mut heap);
        assert_eq!(heap.external_bytes(), 0);
    }

    #[test]
    fn release_is_idempotent() {
        let (mut heap, mut mm) = setup();
        let mut primary = DecaCacheBlock::new::<f64>(&mut mm);
        primary.append(&mut mm, &mut heap, &1.0).unwrap();
        let mut view = SecondaryView::new(&mut mm, primary.group());
        view.release(&mut mm, &mut heap);
        view.release(&mut mm, &mut heap);
        primary.release(&mut mm, &mut heap);
        assert_eq!(heap.external_bytes(), 0);
    }
}
