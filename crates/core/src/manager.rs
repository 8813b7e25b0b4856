//! The Deca memory manager: page-group allocation, release, and LRU
//! swapping of page groups (§5, Appendix C).
//!
//! Every page group has exactly one owner, the [`Group`] handle that
//! [`MemoryManager::create_group`] returns. It is neither `Copy` nor
//! `Clone`, and [`MemoryManager::release`] consumes it, so a group lives
//! exactly as long as the container holding its handle: when the
//! container dies, its pages return to the heap budget at once, with no
//! tracing involved (§4.3).
//!
//! Data that must stay plain — spill file names, manifest rows, release
//! events — names a group by its [`GroupId`]: the slot plus the
//! generation the group was created in. Every release moves its slot to a
//! new generation, so a lookup through the id of a released group fails
//! with [`MemError::Stale`] instead of reading the slot's next occupant.

use std::path::PathBuf;

use deca_heap::{Heap, OomError};

use crate::group::PageGroup;
use crate::swap::SpillStore;

/// The plain name of a page group: its slot and the generation the group
/// was created in. Ids compare equal only for the same group, never for an
/// earlier or later occupant of its slot.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct GroupId {
    slot: u32,
    generation: u32,
}

impl GroupId {
    /// The id of the group created in `slot` at `generation` (how a
    /// manifest row names one).
    pub fn new(slot: u32, generation: u32) -> GroupId {
        GroupId { slot, generation }
    }

    /// The slot index, reused once the group is released.
    pub fn slot(self) -> u32 {
        self.slot
    }

    /// The slot's generation when the group was created.
    pub fn generation(self) -> u32 {
        self.generation
    }
}

impl std::fmt::Display for GroupId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.slot, self.generation)
    }
}

/// The owner of one page group. Only [`MemoryManager::create_group`] makes
/// one, and only [`MemoryManager::release`] ends one, so a group has one
/// owner and is released once:
///
/// ```compile_fail,E0599
/// let mut mm = deca_core::MemoryManager::new(4096, std::env::temp_dir());
/// let group = mm.create_group();
/// let second_owner = group.clone();
/// ```
///
/// A handle must be used with the manager that created it.
#[derive(Debug)]
pub struct Group(GroupId);

impl Group {
    /// The group's plain id, for data that outlives a borrow of the handle.
    pub fn id(&self) -> GroupId {
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
    /// The id names a group that has been released.
    Stale(GroupId),
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
            MemError::Stale(id) => write!(f, "memory manager: group {id} was released"),
        }
    }
}

impl std::error::Error for MemError {}

struct Entry {
    group: PageGroup,
    /// LRU clock stamp (bumped on access).
    last_used: u64,
    /// Whether the group's pages are currently on disk.
    swapped: bool,
    /// May this group be swapped out? (Shuffle buffers pin their groups;
    /// Appendix C: "it pauses the shuffling and triggers cache block
    /// eviction" instead.)
    swappable: bool,
}

/// One slot of the group table: its current generation and, while a group
/// of that generation lives, the group.
struct Slot {
    generation: u32,
    entry: Option<Entry>,
}

impl Slot {
    /// The entry `id` names, if it is this slot's live group.
    #[inline]
    fn live(&mut self, id: GroupId) -> Result<&mut Entry, MemError> {
        match &mut self.entry {
            Some(e) if self.generation == id.generation => Ok(e),
            _ => Err(MemError::Stale(id)),
        }
    }

    /// Take the live group `id` names out of this slot, moving the slot to
    /// its next generation: from here on `id` is stale.
    fn vacate(&mut self, id: GroupId) -> Option<Entry> {
        if self.generation != id.generation {
            return None;
        }
        let e = self.entry.take()?;
        self.generation = self.generation.wrapping_add(1);
        Some(e)
    }
}

/// One page group released by its owner — the observable record of a
/// lifetime-based release (no tracing involved), drained by the engine's
/// run trace via [`MemoryManager::take_release_events`].
#[derive(Copy, Clone, Debug)]
pub struct ReleaseEvent {
    /// The released group.
    pub group: GroupId,
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

/// A [`Group`] handle passed to a manager that did not create it.
#[cold]
#[track_caller]
fn foreign(id: GroupId) -> ! {
    panic!("group {id} is not owned through this memory manager")
}

/// The per-executor memory manager.
pub struct MemoryManager {
    slots: Vec<Slot>,
    /// Slots with no live group.
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
    /// Record a [`ReleaseEvent`] per release. Off by default so standalone
    /// managers never grow an unread log; the engine turns it on when
    /// executor tracing is enabled and drains it per task.
    pub log_releases: bool,
    release_events: Vec<ReleaseEvent>,
    handover_events: Vec<HandoverEvent>,
}

impl MemoryManager {
    /// Create a manager with the given page size; spill files go under
    /// `spill_dir` (a per-executor temp directory).
    pub fn new(page_size: usize, spill_dir: PathBuf) -> MemoryManager {
        MemoryManager {
            slots: Vec::new(),
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

    /// Create a fresh, empty page group owned by the returned handle.
    pub fn create_group(&mut self) -> Group {
        let entry = Entry {
            group: PageGroup::new(self.page_size),
            last_used: self.tick(),
            swapped: false,
            swappable: true,
        };
        let slot = match self.free.pop() {
            Some(i) => i,
            None => {
                self.slots.push(Slot { generation: 0, entry: None });
                self.slots.len() - 1
            }
        };
        let s = &mut self.slots[slot];
        s.entry = Some(entry);
        Group(GroupId { slot: slot as u32, generation: s.generation })
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    #[inline]
    fn entry(&self, id: GroupId) -> Result<&Entry, MemError> {
        match self.slots.get(id.slot as usize) {
            Some(Slot { generation, entry: Some(e) }) if *generation == id.generation => Ok(e),
            _ => Err(MemError::Stale(id)),
        }
    }

    #[inline]
    fn entry_mut(&mut self, id: GroupId) -> Result<&mut Entry, MemError> {
        match self.slots.get_mut(id.slot as usize) {
            Some(slot) => slot.live(id),
            None => Err(MemError::Stale(id)),
        }
    }

    /// The entry a handle owns. A `Group` lives exactly as long as its
    /// entry in the manager that created it, so this misses only for a
    /// handle passed to another manager.
    fn owned(&self, group: &Group) -> &Entry {
        self.entry(group.0).unwrap_or_else(|_| foreign(group.0))
    }

    /// End a group's lifetime: its pages are unregistered from the heap
    /// immediately — the lifetime-based reclamation — and its slot moves
    /// to a new generation, so its id goes stale.
    pub fn release(&mut self, group: Group, heap: &mut Heap) {
        // Page releases change old-generation occupancy, so they are a
        // natural point to retire a finished concurrent marking cycle.
        heap.poll_gc();
        let id = group.0;
        let Some(mut e) = self.slots.get_mut(id.slot as usize).and_then(|s| s.vacate(id)) else {
            foreign(id)
        };
        if self.log_releases {
            self.release_events.push(ReleaseEvent {
                group: id,
                pages: e.group.page_count(),
                bytes: e.group.footprint_bytes(),
            });
        }
        e.group.unregister_all(heap);
        if e.swapped {
            self.spill.remove(id);
        }
        self.free.push(id.slot as usize);
    }

    /// Pin (or unpin) a group against swapping.
    pub fn set_swappable(&mut self, group: &Group, swappable: bool) {
        let id = group.0;
        self.entry_mut(id).unwrap_or_else(|_| foreign(id)).swappable = swappable;
    }

    pub fn is_swapped(&self, group: &Group) -> bool {
        self.owned(group).swapped
    }

    pub fn is_swappable(&self, group: &Group) -> bool {
        self.owned(group).swappable
    }

    /// The in-memory spill record (per-page byte sizes) of a swapped
    /// group — what the engine's crash-consistent manifest must persist,
    /// since this record dies with the process. `Ok(None)` while the group
    /// is resident.
    pub fn spill_page_sizes(&self, id: GroupId) -> Result<Option<Vec<usize>>, MemError> {
        self.entry(id)?;
        Ok(self.spill.page_sizes(id).map(|s| s.to_vec()))
    }

    /// The digest of a swapped group's spill file, taken when it was
    /// written (see [`SpillStore::digest`]). `Ok(None)` while the group is
    /// resident.
    pub fn spill_digest(&self, id: GroupId) -> Result<Option<u64>, MemError> {
        self.entry(id)?;
        Ok(self.spill.digest(id))
    }

    /// The path of a group's spill file (see [`SpillStore::file_path`]).
    pub fn spill_file(&self, id: GroupId) -> PathBuf {
        self.spill.file_path(id)
    }

    /// Total resident footprint of all managed groups.
    pub fn resident_bytes(&self) -> usize {
        self.entries().filter(|e| !e.swapped).map(|e| e.group.footprint_bytes()).sum()
    }

    /// Groups created and not yet released.
    pub fn live_groups(&self) -> usize {
        self.entries().count()
    }

    fn entries(&self) -> impl Iterator<Item = &Entry> {
        self.slots.iter().filter_map(|s| s.entry.as_ref())
    }

    // ------------------------------------------------------------------
    // group access (with swap-in / eviction)
    // ------------------------------------------------------------------

    /// Access a group for reading/scanning; swaps it in if needed. Bumps
    /// the LRU stamp.
    pub fn with_group<R>(
        &mut self,
        group: &Group,
        heap: &mut Heap,
        f: impl FnOnce(&PageGroup) -> R,
    ) -> Result<R, MemError> {
        self.ensure_resident(group.0, heap)?;
        let t = self.tick();
        let e = self.entry_mut(group.0)?;
        e.last_used = t;
        Ok(f(&e.group))
    }

    /// Access a group mutably (appends, in-place combines); swaps it in if
    /// needed. `f` runs on the group where it lives. If it reports the heap
    /// out of budget, least-recently-used swappable groups — never this
    /// one — are evicted and `f` is invoked once more, so `f` must leave
    /// the group untouched when it fails.
    pub fn with_group_mut<R>(
        &mut self,
        group: &Group,
        heap: &mut Heap,
        mut f: impl FnMut(&mut PageGroup, &mut Heap) -> Result<R, OomError>,
    ) -> Result<R, MemError> {
        let id = group.0;
        self.ensure_resident(id, heap)?;
        let t = self.tick();
        let e = self.entry_mut(id)?;
        e.last_used = t;
        let oom = match f(&mut e.group, heap) {
            Ok(r) => return Ok(r),
            Err(oom) => oom,
        };
        let needed = e.group.page_size();
        if self.evict_until(heap, needed, Some(id)).is_err() {
            return Err(MemError::Oom(oom));
        }
        f(&mut self.entry_mut(id)?.group, heap).map_err(MemError::Oom)
    }

    /// Access two pinned groups at once, `src` for reading and `dst` for
    /// writing (a shuffle table rehashing from its old group into its new
    /// one). Pinned groups are never evicted, so bringing one in cannot
    /// push the other out.
    pub(crate) fn with_group_pair<R>(
        &mut self,
        src: &Group,
        dst: &Group,
        heap: &mut Heap,
        f: impl FnOnce(&PageGroup, &mut PageGroup) -> R,
    ) -> Result<R, MemError> {
        let (src, dst) = (src.0, dst.0);
        assert_ne!(src, dst, "a group cannot be both source and destination");
        assert!(
            !self.entry(src)?.swappable && !self.entry(dst)?.swappable,
            "paired access needs pinned groups"
        );
        self.ensure_resident(src, heap)?;
        self.ensure_resident(dst, heap)?;
        let t = self.tick();
        // Two live handles never share a slot, so the split is disjoint.
        let (s, d) = (src.slot as usize, dst.slot as usize);
        let (src_slot, dst_slot) = if s < d {
            let (lo, hi) = self.slots.split_at_mut(d);
            (&mut lo[s], &mut hi[0])
        } else {
            let (lo, hi) = self.slots.split_at_mut(s);
            (&mut hi[0], &mut lo[d])
        };
        let (src_entry, dst_entry) = (src_slot.live(src)?, dst_slot.live(dst)?);
        src_entry.last_used = t;
        dst_entry.last_used = t;
        Ok(f(&src_entry.group, &mut dst_entry.group))
    }

    fn ensure_resident(&mut self, id: GroupId, heap: &mut Heap) -> Result<(), MemError> {
        if !self.entry(id)?.swapped {
            return Ok(());
        }
        // Make room first if the heap cannot hold the group.
        let bytes = self.spill.group_bytes(id);
        let _ = self.try_reserve(heap, bytes, Some(id));
        // Read before touching the entry: a missing or short spill file
        // must leave the group swapped (and the error repeatable), not gone.
        let pages = self.spill.read(id)?;
        self.spill_read_bytes += bytes as u64;
        // A swapped entry is never an eviction victim, so the pages can
        // go back in before the budget is secured.
        let e = self.entry_mut(id)?;
        e.group.restore_pages(pages);
        let mut registered = e.group.register_all(heap);
        if registered.is_err() {
            // Evict others and retry once before giving up.
            let _ = self.evict_until(heap, bytes, Some(id));
            registered = self.entry_mut(id)?.group.register_all(heap);
        }
        let e = self.entry_mut(id)?;
        match registered {
            Ok(()) => {
                e.swapped = false;
                self.spill.remove(id);
                self.swap_ins += 1;
                Ok(())
            }
            Err(oom) => {
                // Could not fit: drop the pages again and report.
                let _ = e.group.take_pages();
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
                .slots
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.entry.as_ref().map(|e| (i, s.generation, e)))
                .filter(|&(i, _, e)| {
                    !e.swapped
                        && e.swappable
                        && protect.is_none_or(|p| p.slot as usize != i)
                        && e.group.page_count() > 0
                })
                .min_by_key(|(_, _, e)| e.last_used)
                .map(|(i, generation, _)| GroupId { slot: i as u32, generation });
            let Some(id) = victim else {
                return Err(MemError::Oom(OomError { requested: bytes - freed }));
            };
            freed += self.swap_out_id(id, heap)?;
        }
        Ok(())
    }

    /// Swap one group's pages to disk, releasing their heap budget.
    pub fn swap_out(&mut self, group: &Group, heap: &mut Heap) -> Result<usize, MemError> {
        self.swap_out_id(group.0, heap)
    }

    fn swap_out_id(&mut self, id: GroupId, heap: &mut Heap) -> Result<usize, MemError> {
        let e = match self.slots.get_mut(id.slot as usize) {
            Some(slot) => slot.live(id)?,
            None => return Err(MemError::Stale(id)),
        };
        debug_assert!(!e.swapped && e.swappable);
        let pages = e.group.take_pages();
        let bytes: usize = pages.iter().map(|p| p.len()).sum();
        if let Err(err) = self.spill.write(id, &pages) {
            // A failed write keeps the pages where they were.
            e.group.restore_pages(pages);
            return Err(err.into());
        }
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
    fn group_slot_reuse() {
        let (mut heap, mut mm, _dir) = setup();
        let a = mm.create_group();
        mm.with_group_mut(&a, &mut heap, |pg, h| pg.append(h, &[1u8; 100]).map(|_| ())).unwrap();
        let stale = a.id();
        mm.release(a, &mut heap);
        assert_eq!(heap.external_bytes(), 0, "released wholesale");
        let b = mm.create_group();
        mm.with_group_mut(&b, &mut heap, |pg, h| pg.append(h, &[2u8; 100]).map(|_| ())).unwrap();
        mm.swap_out(&b, &mut heap).unwrap();
        assert_eq!(b.id().slot(), stale.slot(), "slot reused");
        assert_ne!(b.id(), stale, "by a new generation");
        assert!(matches!(mm.spill_page_sizes(stale), Err(MemError::Stale(id)) if id == stale));
        assert!(matches!(mm.spill_digest(stale), Err(MemError::Stale(_))));
        assert_eq!(mm.spill_page_sizes(b.id()).unwrap(), Some(vec![4096]));
        assert_ne!(mm.spill_file(stale), mm.spill_file(b.id()));
        let back =
            mm.with_group(&b, &mut heap, |pg| pg.fixed_records(100).next().map(<[u8]>::to_vec));
        assert_eq!(back.unwrap(), Some(vec![2u8; 100]));
        mm.release(b, &mut heap);
        assert_eq!(mm.live_groups(), 0);
    }

    /// A swap-out whose write fails (a regular file where the spill
    /// directory should be) errors and keeps the group's pages resident.
    #[test]
    fn a_failed_swap_out_keeps_the_pages() {
        let (mut heap, _, dir) = setup();
        let blocked = dir.path.join("blocked");
        std::fs::write(&blocked, b"not a directory").unwrap();
        let mut mm = MemoryManager::new(4096, blocked);
        let g = mm.create_group();
        let data: Vec<u8> = (0..200u8).collect();
        let ptr = mm.with_group_mut(&g, &mut heap, |pg, h| pg.append(h, &data)).unwrap();
        let resident = heap.external_bytes();
        assert!(matches!(mm.swap_out(&g, &mut heap), Err(MemError::Io(_))));
        assert!(!mm.is_swapped(&g));
        assert_eq!((heap.external_bytes(), mm.swap_outs), (resident, 0));
        let out = mm.with_group(&g, &mut heap, |pg| pg.slice(ptr, 200).to_vec()).unwrap();
        assert_eq!(out, data);
        mm.release(g, &mut heap);
    }

    #[test]
    fn swap_out_and_back() {
        let (mut heap, mut mm, _dir) = setup();
        let g = mm.create_group();
        let data: Vec<u8> = (0..200u8).collect();
        let ptr = mm.with_group_mut(&g, &mut heap, |pg, h| pg.append(h, &data)).unwrap();
        let resident = heap.external_bytes();
        mm.swap_out(&g, &mut heap).unwrap();
        assert_eq!(heap.external_bytes(), 0);
        assert!(mm.is_swapped(&g));
        // Reading swaps back in transparently.
        let out = mm.with_group(&g, &mut heap, |pg| pg.slice(ptr, 200).to_vec()).unwrap();
        assert_eq!(out, data);
        assert!(!mm.is_swapped(&g));
        assert_eq!(heap.external_bytes(), resident);
        assert_eq!(mm.swap_outs, 1);
        assert_eq!(mm.swap_ins, 1);
    }

    #[test]
    fn a_failed_swap_in_keeps_the_group() {
        let (mut heap, mut mm, _dir) = setup();
        let g = mm.create_group();
        mm.with_group_mut(&g, &mut heap, |pg, h| pg.append(h, &[3u8; 200]).map(|_| ())).unwrap();
        mm.swap_out(&g, &mut heap).unwrap();
        let file = mm.spill_file(g.id());
        std::fs::write(&file, [3u8; 10]).unwrap(); // truncated
        assert!(mm.with_group(&g, &mut heap, |pg| pg.page_count()).is_err());
        std::fs::remove_file(&file).unwrap();
        assert!(mm.with_group(&g, &mut heap, |pg| pg.page_count()).is_err());
        assert!(mm.is_swapped(&g), "the group is still there, still swapped");
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
            mm.with_group_mut(&g, &mut heap, |pg, h| pg.append(h, &[7u8; 1000]).map(|_| ()))
                .unwrap();
            groups.push(g);
        }
        assert!(mm.swap_outs > 0, "pressure must trigger eviction");
        // All data still readable.
        for g in &groups {
            let ok =
                mm.with_group(g, &mut heap, |pg| pg.fixed_records(1000).eq([[7u8; 1000]])).unwrap();
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
        mm.with_group_mut(&old, &mut heap, |pg, h| pg.append(h, &[7u8; 1000]).map(|_| ())).unwrap();
        let full = mm.create_group();
        let mut calls = 0;
        while mm.swap_outs == 0 {
            calls = 0;
            mm.with_group_mut(&full, &mut heap, |pg, h| {
                calls += 1;
                pg.append(h, &[9u8; 200 << 10]).map(|_| ())
            })
            .expect("the append succeeds once another group is evicted");
        }
        assert_eq!(calls, 2, "the failing append was re-invoked exactly once");
        assert_eq!(mm.swap_outs, 1);
        assert!(mm.is_swapped(&old), "the victim is the other, swappable group");
        assert!(!mm.is_swapped(&full), "the group being appended to is protected");
        // With no other candidate left, the protected group is still never
        // the victim: the append fails instead.
        let err = loop {
            match mm.with_group_mut(&full, &mut heap, |pg, h| pg.append(h, &[9u8; 200 << 10])) {
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert!(matches!(err, MemError::Oom(_)));
        assert!(!mm.is_swapped(&full));
        assert_eq!(mm.swap_outs, 1);
    }

    #[test]
    fn pinned_groups_are_not_evicted() {
        let mut heap = Heap::new(HeapConfig::with_total(3 << 20));
        let dir = tempdir::TempDir::new();
        let mut mm = MemoryManager::new(256 << 10, dir.path.clone());
        let pinned = mm.create_group();
        mm.set_swappable(&pinned, false);
        mm.with_group_mut(&pinned, &mut heap, |pg, h| pg.append(h, &[1u8; 8]).map(|_| ())).unwrap();
        // Fill the rest of the budget with swappable groups.
        for _ in 0..12 {
            let g = mm.create_group();
            let _ = mm.with_group_mut(&g, &mut heap, |pg, h| pg.append(h, &[2u8; 8]).map(|_| ()));
        }
        assert!(!mm.is_swapped(&pinned));
    }
}
