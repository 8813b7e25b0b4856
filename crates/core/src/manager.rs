//! The Deca memory manager: page-group allocation, reference counting, and
//! LRU swapping of page groups (§5, Appendix C).
//!
//! Containers do not own `PageGroup`s directly; they hold [`GroupId`]s.
//! Sharing a group between a primary and a secondary container is a
//! [`MemoryManager::retain`] (the paper's "generates a copy of the
//! page-info ... reference-counting method", §4.3.3); destroying a
//! container releases its reference, and the group's space returns to the
//! heap budget the moment the count reaches zero — no tracing involved.

use std::path::PathBuf;

use deca_heap::{Heap, OomError};

use crate::group::PageGroup;
use crate::swap::SpillStore;

/// Handle to a page group managed by a [`MemoryManager`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct GroupId(pub(crate) u32);

impl GroupId {
    /// The raw slot index (stable while the group lives; used in spill
    /// file names and diagnostics).
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// Errors from page-group operations.
#[derive(Debug)]
pub enum MemError {
    /// The heap cannot budget the pages even after eviction.
    Oom(OomError),
    /// Spill I/O failed.
    Io(std::io::Error),
}

impl From<OomError> for MemError {
    fn from(e: OomError) -> Self {
        MemError::Oom(e)
    }
}

impl From<std::io::Error> for MemError {
    fn from(e: std::io::Error) -> Self {
        MemError::Io(e)
    }
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::Oom(e) => write!(f, "memory manager: {e}"),
            MemError::Io(e) => write!(f, "memory manager spill I/O: {e}"),
        }
    }
}

impl std::error::Error for MemError {}

struct Entry {
    group: PageGroup,
    refcount: u32,
    /// LRU clock stamp (bumped on access).
    last_used: u64,
    /// Whether the group's pages are currently on disk.
    swapped: bool,
    /// May this group be swapped out? (Shuffle buffers pin their groups;
    /// Appendix C: "it pauses the shuffling and triggers cache block
    /// eviction" instead.)
    swappable: bool,
}

/// One page group reclaimed at refcount zero — the observable record of a
/// lifetime-based release (no tracing involved), drained by the engine's
/// run trace via [`MemoryManager::take_release_events`].
#[derive(Copy, Clone, Debug)]
pub struct ReleaseEvent {
    /// Raw slot index of the released group.
    pub group: u32,
    /// Pages the group held when released.
    pub pages: usize,
    /// Footprint bytes returned to the heap budget.
    pub bytes: usize,
}

/// One shuffle run whose page ownership moved to a reducer — the
/// zero-copy sibling of [`ReleaseEvent`]: the pages left this executor's
/// custody without a byte copy (and without a release; the *consumer*
/// recycles them). Drained by the engine's run trace via
/// [`MemoryManager::take_handover_events`].
#[derive(Copy, Clone, Debug)]
pub struct HandoverEvent {
    /// Pages whose ownership moved.
    pub pages: usize,
    /// Payload bytes carried by those pages.
    pub bytes: usize,
}

/// The per-executor memory manager.
pub struct MemoryManager {
    entries: Vec<Option<Entry>>,
    free: Vec<usize>,
    clock: u64,
    page_size: usize,
    spill: SpillStore,
    /// Cumulative bytes written to / read from spill files.
    pub spill_write_bytes: u64,
    pub spill_read_bytes: u64,
    /// Number of swap-out / swap-in events.
    pub swap_outs: u64,
    pub swap_ins: u64,
    /// Record a [`ReleaseEvent`] per zero-refcount reclamation. Off by
    /// default so standalone managers never grow an unread log; the engine
    /// turns it on when executor tracing is enabled and drains it per task.
    pub log_releases: bool,
    release_events: Vec<ReleaseEvent>,
    handover_events: Vec<HandoverEvent>,
}

impl MemoryManager {
    /// Create a manager with the given page size; spill files go under
    /// `spill_dir` (a per-executor temp directory).
    pub fn new(page_size: usize, spill_dir: PathBuf) -> MemoryManager {
        MemoryManager {
            entries: Vec::new(),
            free: Vec::new(),
            clock: 0,
            page_size,
            spill: SpillStore::new(spill_dir),
            spill_write_bytes: 0,
            spill_read_bytes: 0,
            swap_outs: 0,
            swap_ins: 0,
            log_releases: false,
            release_events: Vec::new(),
            handover_events: Vec::new(),
        }
    }

    /// Drain the release log recorded since the last call (empty unless
    /// [`MemoryManager::log_releases`] is set).
    pub fn take_release_events(&mut self) -> Vec<ReleaseEvent> {
        std::mem::take(&mut self.release_events)
    }

    /// Record one zero-copy page hand-over (gated on the same
    /// [`MemoryManager::log_releases`] flag the release log uses — both
    /// are memory-lifecycle observability, on only under tracing).
    pub fn note_handover(&mut self, pages: usize, bytes: usize) {
        if self.log_releases {
            self.handover_events.push(HandoverEvent { pages, bytes });
        }
    }

    /// Drain the hand-over log recorded since the last call.
    pub fn take_handover_events(&mut self) -> Vec<HandoverEvent> {
        std::mem::take(&mut self.handover_events)
    }

    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Create a fresh page group with reference count 1.
    pub fn create_group(&mut self) -> GroupId {
        let entry = Entry {
            group: PageGroup::new(self.page_size),
            refcount: 1,
            last_used: self.tick(),
            swapped: false,
            swappable: true,
        };
        match self.free.pop() {
            Some(i) => {
                self.entries[i] = Some(entry);
                GroupId(i as u32)
            }
            None => {
                self.entries.push(Some(entry));
                GroupId((self.entries.len() - 1) as u32)
            }
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn entry(&self, id: GroupId) -> &Entry {
        self.entries[id.0 as usize].as_ref().expect("group released")
    }

    fn entry_mut(&mut self, id: GroupId) -> &mut Entry {
        self.entries[id.0 as usize].as_mut().expect("group released")
    }

    /// Share the group with another container (increment the refcount —
    /// the §4.3.3 shared page-info optimisation).
    pub fn retain(&mut self, id: GroupId) {
        self.entry_mut(id).refcount += 1;
    }

    /// Release one reference. At zero the group's pages are unregistered
    /// from the heap immediately — the lifetime-based reclamation.
    pub fn release(&mut self, id: GroupId, heap: &mut Heap) {
        // Page releases change old-generation occupancy, so they are a
        // natural point to retire a finished concurrent marking cycle.
        heap.poll_gc();
        let e = self.entry_mut(id);
        assert!(e.refcount > 0);
        e.refcount -= 1;
        if e.refcount == 0 {
            let mut e = self.entries[id.0 as usize].take().expect("group exists");
            if self.log_releases {
                self.release_events.push(ReleaseEvent {
                    group: id.0,
                    pages: e.group.page_count(),
                    bytes: e.group.footprint_bytes(),
                });
            }
            e.group.unregister_all(heap);
            if e.swapped {
                self.spill.remove(id.0);
            }
            self.free.push(id.0 as usize);
        }
    }

    pub fn refcount(&self, id: GroupId) -> u32 {
        self.entry(id).refcount
    }

    /// Pin (or unpin) a group against swapping.
    pub fn set_swappable(&mut self, id: GroupId, swappable: bool) {
        self.entry_mut(id).swappable = swappable;
    }

    pub fn is_swapped(&self, id: GroupId) -> bool {
        self.entry(id).swapped
    }

    pub fn is_swappable(&self, id: GroupId) -> bool {
        self.entry(id).swappable
    }

    /// An expected-lifetime weight for a group, in the spirit of ROLP's
    /// observed-lifetime profiling: groups shared by more consumers
    /// (higher refcount) live longer and deserve a warmer cache tier.
    /// Monotone in the refcount; zero only for dead slots.
    pub fn lifetime_hint(&self, id: GroupId) -> u32 {
        match self.entries.get(id.0 as usize).and_then(|e| e.as_ref()) {
            Some(e) => e.refcount,
            None => 0,
        }
    }

    /// The in-memory spill record (per-page byte sizes) of a swapped
    /// group, if it has one — what the engine's crash-consistent manifest
    /// must persist, since this record dies with the process.
    pub fn spill_page_sizes(&self, id: GroupId) -> Option<Vec<usize>> {
        self.spill.page_sizes(id.raw()).map(|s| s.to_vec())
    }

    /// The digest of a swapped group's spill file, taken when it was
    /// written (see [`SpillStore::digest`]).
    pub fn spill_digest(&self, id: GroupId) -> Option<u64> {
        self.spill.digest(id.raw())
    }

    /// The path of a group's spill file (see [`SpillStore::file_path`]).
    pub fn spill_file(&self, id: GroupId) -> std::path::PathBuf {
        self.spill.file_path(id.raw())
    }

    /// Total resident footprint of all managed groups.
    pub fn resident_bytes(&self) -> usize {
        self.entries
            .iter()
            .flatten()
            .filter(|e| !e.swapped)
            .map(|e| e.group.footprint_bytes())
            .sum()
    }

    pub fn live_groups(&self) -> usize {
        self.entries.iter().flatten().count()
    }

    // ------------------------------------------------------------------
    // group access (with swap-in / eviction)
    // ------------------------------------------------------------------

    /// Access a group for reading/scanning; swaps it in if needed. Bumps
    /// the LRU stamp.
    pub fn with_group<R>(
        &mut self,
        id: GroupId,
        heap: &mut Heap,
        f: impl FnOnce(&PageGroup) -> R,
    ) -> Result<R, MemError> {
        self.ensure_resident(id, heap)?;
        let t = self.tick();
        let e = self.entry_mut(id);
        e.last_used = t;
        Ok(f(&e.group))
    }

    /// Access a group mutably (appends, in-place combines); swaps it in if
    /// needed. `f` runs on the group where it lives. If it reports the heap
    /// out of budget, least-recently-used swappable groups — never `id`
    /// itself — are evicted and `f` is invoked once more, so `f` must leave
    /// the group untouched when it fails.
    pub fn with_group_mut<R>(
        &mut self,
        id: GroupId,
        heap: &mut Heap,
        mut f: impl FnMut(&mut PageGroup, &mut Heap) -> Result<R, OomError>,
    ) -> Result<R, MemError> {
        self.ensure_resident(id, heap)?;
        let t = self.tick();
        let e = self.entry_mut(id);
        e.last_used = t;
        let oom = match f(&mut e.group, heap) {
            Ok(r) => return Ok(r),
            Err(oom) => oom,
        };
        let needed = e.group.page_size();
        if self.evict_until(heap, needed, Some(id)).is_err() {
            return Err(MemError::Oom(oom));
        }
        f(&mut self.entry_mut(id).group, heap).map_err(MemError::Oom)
    }

    /// Access two pinned groups at once, `src` for reading and `dst` for
    /// writing (a shuffle table rehashing from its old group into its new
    /// one). Pinned groups are never evicted, so bringing one in cannot
    /// push the other out.
    pub(crate) fn with_group_pair<R>(
        &mut self,
        src: GroupId,
        dst: GroupId,
        heap: &mut Heap,
        f: impl FnOnce(&PageGroup, &mut PageGroup) -> R,
    ) -> Result<R, MemError> {
        assert_ne!(src, dst, "a group cannot be both source and destination");
        assert!(
            !self.is_swappable(src) && !self.is_swappable(dst),
            "paired access needs pinned groups"
        );
        self.ensure_resident(src, heap)?;
        self.ensure_resident(dst, heap)?;
        let t = self.tick();
        let (s, d) = (src.0 as usize, dst.0 as usize);
        let (src_entry, dst_entry) = if s < d {
            let (lo, hi) = self.entries.split_at_mut(d);
            (&mut lo[s], &mut hi[0])
        } else {
            let (lo, hi) = self.entries.split_at_mut(s);
            (&mut hi[0], &mut lo[d])
        };
        let src_entry = src_entry.as_mut().expect("group released");
        let dst_entry = dst_entry.as_mut().expect("group released");
        src_entry.last_used = t;
        dst_entry.last_used = t;
        Ok(f(&src_entry.group, &mut dst_entry.group))
    }

    fn ensure_resident(&mut self, id: GroupId, heap: &mut Heap) -> Result<(), MemError> {
        if !self.entry(id).swapped {
            return Ok(());
        }
        // Make room first if the heap cannot hold the group.
        let bytes = self.spill.group_bytes(id.0);
        let _ = self.try_reserve(heap, bytes, Some(id));
        // Read before taking the entry: a missing or short spill file must
        // leave the group swapped (and the error repeatable), not gone.
        let pages = self.spill.read(id.0)?;
        let mut e = self.entries[id.0 as usize].take().expect("group exists");
        self.spill_read_bytes += bytes as u64;
        e.group.restore_pages(pages);
        let mut registered = e.group.register_all(heap);
        if registered.is_err() {
            // Evict others and retry once before giving up.
            self.entries[id.0 as usize] = Some(e);
            let _ = self.evict_until(heap, bytes, Some(id));
            e = self.entries[id.0 as usize].take().expect("group exists");
            registered = e.group.register_all(heap);
        }
        match registered {
            Ok(()) => {
                self.spill.remove(id.0);
                e.swapped = false;
                self.swap_ins += 1;
                self.entries[id.0 as usize] = Some(e);
                Ok(())
            }
            Err(oom) => {
                // Could not fit: drop the pages again and report.
                let _ = e.group.take_pages();
                self.entries[id.0 as usize] = Some(e);
                Err(MemError::Oom(oom))
            }
        }
    }

    fn try_reserve(
        &mut self,
        heap: &mut Heap,
        bytes: usize,
        protect: Option<GroupId>,
    ) -> Result<(), MemError> {
        if heap.old_occupancy() < 1.0 {
            return Ok(());
        }
        self.evict_until(heap, bytes, protect)
    }

    /// Evict least-recently-used swappable groups until roughly `bytes` of
    /// budget have been freed (or no candidates remain).
    fn evict_until(
        &mut self,
        heap: &mut Heap,
        bytes: usize,
        protect: Option<GroupId>,
    ) -> Result<(), MemError> {
        let mut freed = 0usize;
        while freed < bytes {
            let victim = self
                .entries
                .iter()
                .enumerate()
                .filter_map(|(i, e)| e.as_ref().map(|e| (i, e)))
                .filter(|(i, e)| {
                    !e.swapped
                        && e.swappable
                        && Some(GroupId(*i as u32)) != protect
                        && e.group.page_count() > 0
                })
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i);
            let Some(i) = victim else {
                return Err(MemError::Oom(OomError { requested: bytes - freed }));
            };
            freed += self.swap_out(GroupId(i as u32), heap)?;
        }
        Ok(())
    }

    /// Swap one group's pages to disk, releasing their heap budget.
    pub fn swap_out(&mut self, id: GroupId, heap: &mut Heap) -> Result<usize, MemError> {
        let e = self.entries[id.0 as usize].as_mut().expect("group exists");
        debug_assert!(!e.swapped && e.swappable);
        let pages = e.group.take_pages();
        let bytes: usize = pages.iter().map(|p| p.len()).sum();
        self.spill.write(id.0, &pages)?;
        self.spill_write_bytes += bytes as u64;
        e.group.unregister_all(heap);
        e.swapped = true;
        self.swap_outs += 1;
        Ok(bytes)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use deca_heap::HeapConfig;

    fn setup() -> (Heap, MemoryManager, tempdir::TempDir) {
        let dir = tempdir::TempDir::new();
        let mm = MemoryManager::new(4096, dir.path.clone());
        (Heap::new(HeapConfig::small()), mm, dir)
    }

    /// Minimal tempdir helper (no external crate).
    pub(crate) mod tempdir {
        use std::path::PathBuf;
        use std::sync::atomic::{AtomicU64, Ordering};

        static N: AtomicU64 = AtomicU64::new(0);

        pub struct TempDir {
            pub path: PathBuf,
        }

        impl TempDir {
            pub fn new() -> TempDir {
                let path = std::env::temp_dir().join(format!(
                    "deca-mm-test-{}-{}",
                    std::process::id(),
                    N.fetch_add(1, Ordering::Relaxed)
                ));
                std::fs::create_dir_all(&path).expect("mkdir");
                TempDir { path }
            }
        }

        impl Drop for TempDir {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.path);
            }
        }
    }

    #[test]
    fn refcount_lifecycle() {
        let (mut heap, mut mm, _dir) = setup();
        let g = mm.create_group();
        mm.with_group_mut(g, &mut heap, |pg, h| pg.append(h, &[1u8; 100]).map(|_| ())).unwrap();
        assert!(heap.external_bytes() > 0);
        mm.retain(g);
        assert_eq!(mm.refcount(g), 2);
        mm.release(g, &mut heap);
        assert!(heap.external_bytes() > 0, "still referenced");
        mm.release(g, &mut heap);
        assert_eq!(heap.external_bytes(), 0, "released wholesale");
        assert_eq!(mm.live_groups(), 0);
    }

    #[test]
    fn group_slot_reuse() {
        let (mut heap, mut mm, _dir) = setup();
        let a = mm.create_group();
        mm.release(a, &mut heap);
        let b = mm.create_group();
        assert_eq!(a.0, b.0, "slot reused");
        assert_eq!(mm.refcount(b), 1);
    }

    #[test]
    fn swap_out_and_back() {
        let (mut heap, mut mm, _dir) = setup();
        let g = mm.create_group();
        let data: Vec<u8> = (0..200u8).collect();
        let ptr = mm.with_group_mut(g, &mut heap, |pg, h| pg.append(h, &data)).unwrap();
        let resident = heap.external_bytes();
        mm.swap_out(g, &mut heap).unwrap();
        assert_eq!(heap.external_bytes(), 0);
        assert!(mm.is_swapped(g));
        // Reading swaps back in transparently.
        let out = mm.with_group(g, &mut heap, |pg| pg.slice(ptr, 200).to_vec()).unwrap();
        assert_eq!(out, data);
        assert!(!mm.is_swapped(g));
        assert_eq!(heap.external_bytes(), resident);
        assert_eq!(mm.swap_outs, 1);
        assert_eq!(mm.swap_ins, 1);
    }

    #[test]
    fn a_failed_swap_in_keeps_the_group() {
        let (mut heap, mut mm, _dir) = setup();
        let g = mm.create_group();
        mm.with_group_mut(g, &mut heap, |pg, h| pg.append(h, &[3u8; 200]).map(|_| ())).unwrap();
        mm.swap_out(g, &mut heap).unwrap();
        let file = mm.spill_file(g);
        std::fs::write(&file, [3u8; 10]).unwrap(); // truncated
        assert!(mm.with_group(g, &mut heap, |pg| pg.page_count()).is_err());
        std::fs::remove_file(&file).unwrap();
        assert!(mm.with_group(g, &mut heap, |pg| pg.page_count()).is_err());
        assert!(mm.is_swapped(g), "the group is still there, still swapped");
        mm.release(g, &mut heap);
        assert_eq!(mm.live_groups(), 0);
    }

    #[test]
    fn eviction_under_pressure() {
        // Heap old gen ~2MB; create groups totalling more than that and
        // watch LRU eviction keep appends succeeding.
        let mut heap = Heap::new(HeapConfig::with_total(3 << 20));
        let dir = tempdir::TempDir::new();
        let mut mm = MemoryManager::new(256 << 10, dir.path.clone());
        let mut groups = Vec::new();
        for _ in 0..12 {
            let g = mm.create_group();
            mm.with_group_mut(g, &mut heap, |pg, h| pg.append(h, &[7u8; 1000]).map(|_| ()))
                .unwrap();
            groups.push(g);
        }
        assert!(mm.swap_outs > 0, "pressure must trigger eviction");
        // All data still readable.
        for g in &groups {
            let ok = mm
                .with_group(*g, &mut heap, |pg| pg.fixed_records(1000).eq([[7u8; 1000]]))
                .unwrap();
            assert!(ok);
        }
        for g in groups {
            mm.release(g, &mut heap);
        }
        assert_eq!(heap.external_bytes(), 0);
    }

    #[test]
    fn an_append_out_of_budget_evicts_another_group_and_retries() {
        let mut heap = Heap::new(HeapConfig::with_total(3 << 20));
        let dir = tempdir::TempDir::new();
        let mut mm = MemoryManager::new(256 << 10, dir.path.clone());
        // `old` is the LRU swappable group; `full` is touched after it and
        // then grown, one page per append, until the budget is gone.
        let old = mm.create_group();
        mm.with_group_mut(old, &mut heap, |pg, h| pg.append(h, &[7u8; 1000]).map(|_| ())).unwrap();
        let full = mm.create_group();
        let mut calls = 0;
        while mm.swap_outs == 0 {
            calls = 0;
            mm.with_group_mut(full, &mut heap, |pg, h| {
                calls += 1;
                pg.append(h, &[9u8; 200 << 10]).map(|_| ())
            })
            .expect("the append succeeds once another group is evicted");
        }
        assert_eq!(calls, 2, "the failing append was re-invoked exactly once");
        assert_eq!(mm.swap_outs, 1);
        assert!(mm.is_swapped(old), "the victim is the other, swappable group");
        assert!(!mm.is_swapped(full), "the group being appended to is protected");
        // With no other candidate left, the protected group is still never
        // the victim: the append fails instead.
        let err = loop {
            match mm.with_group_mut(full, &mut heap, |pg, h| pg.append(h, &[9u8; 200 << 10])) {
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert!(matches!(err, MemError::Oom(_)));
        assert!(!mm.is_swapped(full));
        assert_eq!(mm.swap_outs, 1);
    }

    #[test]
    fn pinned_groups_are_not_evicted() {
        let mut heap = Heap::new(HeapConfig::with_total(3 << 20));
        let dir = tempdir::TempDir::new();
        let mut mm = MemoryManager::new(256 << 10, dir.path.clone());
        let pinned = mm.create_group();
        mm.set_swappable(pinned, false);
        mm.with_group_mut(pinned, &mut heap, |pg, h| pg.append(h, &[1u8; 8]).map(|_| ())).unwrap();
        // Fill the rest of the budget with swappable groups.
        for _ in 0..12 {
            let g = mm.create_group();
            let _ = mm.with_group_mut(g, &mut heap, |pg, h| pg.append(h, &[2u8; 8]).map(|_| ()));
        }
        assert!(!mm.is_swapped(pinned));
    }
}
