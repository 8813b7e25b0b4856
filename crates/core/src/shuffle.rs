//! Decomposed shuffle buffers (§4.2–§4.3, Figure 6b).
//!
//! [`DecaHashShuffle`] is the hash-based buffer with **eager combining**
//! (`reduceByKey`) when both Key and Value are SFSTs: the paper's
//! pointer-free buffer ("the pointer array can be avoided", §4.3.2). The
//! open-addressing table *is* the buffer's pages: slot `i` is a fixed
//! `key_size + val_size` segment at page `i / slots_per_page`, offset
//! `(i % slots_per_page) * slot_size`, with `slots_per_page` a power of
//! two. The only off-page metadata is one control byte per slot (empty,
//! or a 7-bit tag of the key's hash), so a probe reads page bytes only on
//! a tag match, and a combine **reuses the old value's bytes in place** —
//! the paper's fix for the "Value object dies on every aggregate" churn
//! that saturates the GC in WordCount (§4.3.2, Figure 8a).
//! [`DecaHashShuffle::insert_all`] enters the page group once per run of
//! inserts that fit under the 0.7 load threshold. Variable-size keys use
//! [`crate::DecaVarHashShuffle`]. No job here sorts by key, so the paper's
//! sort-based buffer (Figure 6b, Appendix C) is not built.
//!
//! The table's heap-budget cost is its pages, 0.35–0.7 full of live slots
//! between growths; the control array sits off the budget at one byte per
//! slot. At any fill above 5/16 that totals less than compact segments
//! behind a pointer table of 12-byte `Option<SegPtr>` slots at the same
//! load. Growth builds a table twice the size in a fresh page group,
//! rehashes into it and then releases the old group: the dead table is
//! reclaimed by its lifetime, not copied forward or traced. A caller that
//! knows how many keys are coming — an iterative job whose previous
//! iteration combined the same keys — starts the table at the size growth
//! would end at ([`DecaHashShuffle::with_keys`]) and skips the doublings.
//!
//! Shuffle buffers pin their page groups (Appendix C: Deca evicts cache
//! blocks rather than spilling pointer-only shuffle state).

use std::borrow::Cow;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use deca_heap::Heap;

use crate::group::PageGroup;
use crate::hash::hash_bytes;
use crate::manager::{Group, MemError, MemoryManager};
use crate::page::Page;

/// Control byte of a free slot; an occupied slot holds [`tag`] of its hash.
pub(crate) const EMPTY: u8 = 0;

/// An occupied slot's control byte: the hash's top seven bits, high bit set.
#[inline]
pub(crate) fn tag(hash: u64) -> u8 {
    0x80 | (hash >> 57) as u8
}

/// Live entries a table of `cap` slots may hold (the 0.7 load threshold).
#[inline]
pub(crate) fn max_len(cap: usize) -> usize {
    cap * 7 / 10
}

/// Linear probe over a power-of-two control array from `hash`'s home slot:
/// `Ok(i)` at the first slot whose tag matches and `is_key(i)` confirms,
/// `Err(i)` at the first empty slot. Key bytes are read only on a tag match.
#[inline]
pub(crate) fn probe(
    ctrl: &[u8],
    hash: u64,
    mut is_key: impl FnMut(usize) -> bool,
) -> Result<usize, usize> {
    let mask = ctrl.len() - 1;
    let tag = tag(hash);
    let mut i = hash as usize & mask;
    loop {
        match ctrl[i] {
            EMPTY => return Err(i),
            c if c == tag && is_key(i) => return Ok(i),
            _ => i = (i + 1) & mask,
        }
    }
}

/// Byte equality a word at a time. Keys are a few words long, and an
/// inlined compare costs less than a call to `memcmp`.
#[inline]
pub(crate) fn same_bytes(a: &[u8], b: &[u8]) -> bool {
    let ((x, x_tail), (y, y_tail)) = (a.as_chunks::<8>(), b.as_chunks::<8>());
    a.len() == b.len()
        && x.iter().zip(y).all(|(p, q)| u64::from_ne_bytes(*p) == u64::from_ne_bytes(*q))
        && x_tail.iter().zip(y_tail).all(|(p, q)| p == q)
}

/// An unhinted first table spans one page, but never more than this many
/// slots.
const INITIAL_SLOTS: usize = 1 << 12;

/// Where a [`DecaHashShuffle`] slot's bytes live in its table's pages.
#[derive(Copy, Clone, Debug)]
struct SlotMap {
    key_size: usize,
    val_size: usize,
    /// log2 of slots per page: slot `i` is in page `i >> page_shift`.
    page_shift: u32,
}

impl SlotMap {
    #[inline]
    fn slot_size(self) -> usize {
        self.key_size + self.val_size
    }

    #[inline]
    fn per_page(self) -> usize {
        1 << self.page_shift
    }

    #[inline]
    fn locate(self, i: usize) -> (usize, usize) {
        (i >> self.page_shift, (i & (self.per_page() - 1)) * self.slot_size())
    }

    /// Slot `i`'s `key ++ value` bytes.
    #[inline]
    fn slot(self, g: &PageGroup, i: usize) -> &[u8] {
        let (page, off) = self.locate(i);
        &g.page(page).bytes()[off..off + self.slot_size()]
    }

    #[inline]
    fn slot_mut(self, g: &mut PageGroup, i: usize) -> &mut [u8] {
        let (page, off) = self.locate(i);
        &mut g.page_mut(page).bytes_mut()[off..off + self.slot_size()]
    }

    /// One run of [`DecaHashShuffle::insert_all`] over the table `ctrl`
    /// holding `len` keys: apply `pairs` in order until a new key meets
    /// the load threshold. Returns that pair, unapplied, and the number of
    /// combines.
    #[inline(always)]
    fn insert_run<K: AsRef<[u8]>, V: AsRef<[u8]>>(
        self,
        g: &mut PageGroup,
        ctrl: &mut [u8],
        len: &mut usize,
        pairs: impl Iterator<Item = (K, V)>,
        combine: &mut impl FnMut(&mut [u8], &[u8]),
    ) -> (Option<(K, V)>, u64) {
        let room = max_len(ctrl.len());
        let mut hits = 0;
        for (k, v) in pairs {
            let (key, val) = (k.as_ref(), v.as_ref());
            assert_eq!(key.len(), self.key_size);
            assert_eq!(val.len(), self.val_size);
            let hash = hash_bytes(key);
            match probe(ctrl, hash, |i| same_bytes(&self.slot(g, i)[..self.key_size], key)) {
                Ok(i) => {
                    combine(&mut self.slot_mut(g, i)[self.key_size..], val);
                    hits += 1;
                }
                Err(_) if *len == room => return (Some((k, v)), hits),
                Err(i) => {
                    ctrl[i] = tag(hash);
                    let slot = self.slot_mut(g, i);
                    slot[..self.key_size].copy_from_slice(key);
                    slot[self.key_size..].copy_from_slice(val);
                    *len += 1;
                }
            }
        }
        (None, hits)
    }
}

/// Hash-based shuffle buffer with eager combining over decomposed
/// fixed-size keys and values, its open-addressing table laid out in
/// pages (see the module docs).
#[derive(Debug)]
pub struct DecaHashShuffle {
    /// The group holding the current table's pages, slot order.
    group: Group,
    map: SlotMap,
    /// One control byte per slot ([`EMPTY`] or a [`tag`]); its length is
    /// the table's capacity, zero until the first insert.
    ctrl: Vec<u8>,
    len: usize,
    /// Slots of the first table, allocated by the first insert.
    first_cap: usize,
    /// In-place combines performed (each one is a GC'd temporary avoided).
    pub combines: u64,
    /// Tables built by doubling a full one (the first table not counted).
    pub grows: u64,
}

impl DecaHashShuffle {
    /// Create a buffer for SFST keys of `key_size` bytes and SFST values of
    /// `val_size` bytes. Its first table, one page, is allocated by the
    /// first insert.
    pub fn new(mm: &mut MemoryManager, key_size: usize, val_size: usize) -> DecaHashShuffle {
        DecaHashShuffle::with_keys(mm, key_size, val_size, 0)
    }

    /// [`DecaHashShuffle::new`] for a buffer expected to hold `keys`
    /// distinct keys. Its first table is the smallest doubling of `new`'s
    /// first table whose 0.7 load threshold holds `keys`: exactly the table
    /// growth from `new`'s would end at, so the hint changes no contents,
    /// only the doublings on the way there. An undercount grows as `new`'s
    /// table does.
    pub fn with_keys(
        mm: &mut MemoryManager,
        key_size: usize,
        val_size: usize,
        keys: usize,
    ) -> DecaHashShuffle {
        let group = mm.create_group();
        mm.set_swappable(&group, false);
        let per_page = (mm.page_size() / (key_size + val_size)).max(1);
        let map = SlotMap { key_size, val_size, page_shift: per_page.ilog2() };
        let mut first_cap = map.per_page().min(INITIAL_SLOTS);
        while max_len(first_cap) < keys {
            first_cap *= 2;
        }
        DecaHashShuffle { group, map, ctrl: Vec::new(), len: 0, first_cap, combines: 0, grows: 0 }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn group(&self) -> &Group {
        &self.group
    }

    /// Bytes of table metadata kept off the pages (and off the heap
    /// budget): the control array.
    pub fn off_page_bytes(&self) -> usize {
        self.ctrl.len()
    }

    /// Insert one pair: [`DecaHashShuffle::insert_all`] over a single pair.
    #[inline]
    pub fn insert(
        &mut self,
        mm: &mut MemoryManager,
        heap: &mut Heap,
        key: &[u8],
        val: &[u8],
        combine: impl FnMut(&mut [u8], &[u8]),
    ) -> Result<(), MemError> {
        self.insert_all(mm, heap, [(key, val)], combine)
    }

    /// Insert pairs in order, eagerly combining when a key exists:
    /// `combine(existing_value, new_value)` mutates the existing value's
    /// bytes in place (§4.3.2 segment reuse — no allocation, no GC work),
    /// so each key's values combine in arrival order.
    ///
    /// The page group is entered once per run of inserts that fit under
    /// the load threshold. Every slot's page exists before a run starts, so
    /// a run cannot fail and the manager never re-invokes it: no record is
    /// applied twice. Growth between runs is the only fallible step.
    #[inline]
    pub fn insert_all<K: AsRef<[u8]>, V: AsRef<[u8]>>(
        &mut self,
        mm: &mut MemoryManager,
        heap: &mut Heap,
        pairs: impl IntoIterator<Item = (K, V)>,
        mut combine: impl FnMut(&mut [u8], &[u8]),
    ) -> Result<(), MemError> {
        let mut pairs = pairs.into_iter();
        // The pair that found the table full waits here while it grows.
        let mut pending = pairs.next();
        if pending.is_none() {
            return Ok(());
        }
        if self.ctrl.is_empty() {
            self.grow(mm, heap)?;
        }
        let map = self.map;
        loop {
            let (ctrl, len, combines) = (&mut self.ctrl, &mut self.len, &mut self.combines);
            let full = mm.with_group_mut(&self.group, heap, |g, _| {
                // The waiting pair first, so the loop over the rest pulls
                // each pair straight from `pairs`.
                let (mut stopped, mut hits) =
                    map.insert_run(g, ctrl, len, pending.take().into_iter(), &mut combine);
                if stopped.is_none() {
                    let (rest, more) = map.insert_run(g, ctrl, len, pairs.by_ref(), &mut combine);
                    (stopped, hits) = (rest, hits + more);
                }
                *combines += hits;
                pending = stopped;
                Ok(pending.is_some())
            })?;
            if !full {
                return Ok(());
            }
            self.grow(mm, heap)?;
        }
    }

    /// Allocate the first table in the buffer's empty group, or build one
    /// twice the size in a fresh group, rehash into it and release the old
    /// group. On failure the buffer is unchanged, so growth may be retried.
    fn grow(&mut self, mm: &mut MemoryManager, heap: &mut Heap) -> Result<(), MemError> {
        let map = self.map;
        let cap = if self.ctrl.is_empty() { self.first_cap } else { self.ctrl.len() * 2 };
        let (pages, page_bytes) =
            (cap.div_ceil(map.per_page()), cap.min(map.per_page()) * map.slot_size());
        // Each reservation opens a page of its own, since a page's worth of
        // slots fills more than half of one. Re-invoked after an eviction,
        // the loop resumes where the failed reservation stopped.
        let reserve = |g: &mut PageGroup, h: &mut Heap| {
            while g.page_count() < pages {
                g.reserve(h, page_bytes)?;
            }
            Ok(())
        };
        let mut ctrl = vec![EMPTY; cap];
        if self.ctrl.is_empty() {
            mm.with_group_mut(&self.group, heap, reserve)?;
            self.ctrl = ctrl;
            return Ok(());
        }
        let target = mm.create_group();
        mm.set_swappable(&target, false);
        let old_ctrl = &self.ctrl;
        let rehashed = mm.with_group_mut(&target, heap, reserve).and_then(|()| {
            mm.with_group_pair(&self.group, &target, heap, |old, new| {
                for (i, &c) in old_ctrl.iter().enumerate().filter(|&(_, &c)| c != EMPTY) {
                    let slot = map.slot(old, i);
                    let hash = hash_bytes(&slot[..map.key_size]);
                    let Err(j) = probe(&ctrl, hash, |_| false) else { unreachable!() };
                    ctrl[j] = c;
                    map.slot_mut(new, j).copy_from_slice(slot);
                }
            })
        });
        if let Err(e) = rehashed {
            mm.release(target, heap);
            return Err(e);
        }
        mm.release(std::mem::replace(&mut self.group, target), heap);
        self.grows += 1;
        self.ctrl = ctrl;
        Ok(())
    }

    /// Visit every (key, value) byte pair, in table order, a page of
    /// slots at a time.
    pub fn for_each(
        &self,
        mm: &mut MemoryManager,
        heap: &mut Heap,
        mut f: impl FnMut(&[u8], &[u8]),
    ) -> Result<(), MemError> {
        let (ctrl, map) = (&self.ctrl, self.map);
        mm.with_group(&self.group, heap, |g| {
            for (page, ctrl) in ctrl.chunks(map.per_page()).enumerate() {
                let slots = g.page(page).bytes().chunks_exact(map.slot_size());
                for (slot, _) in slots.zip(ctrl).filter(|&(_, &c)| c != EMPTY) {
                    let (key, val) = slot.split_at(map.key_size);
                    f(key, val);
                }
            }
        })
    }

    /// End the buffer's lifetime and release its page group (end of the
    /// reading phase).
    pub fn release(self, mm: &mut MemoryManager, heap: &mut Heap) {
        mm.release(self.group, heap);
    }
}

// ---------------------------------------------------------------------
// Zero-copy shuffle output: page runs, the per-executor arena, and the
// exchanged payload. A map task appends whole records into page-aligned
// runs; the exchange then moves the *pages* to the reducer — ownership
// transfer, no byte copy (the §4.2 "directly outputting the raw bytes"
// story taken to its conclusion).
// ---------------------------------------------------------------------

/// Shared accounting between a [`ShuffleArena`] and every [`PageRun`] it
/// issued. Counters are per-arena (not process-global) so concurrent
/// sessions — and concurrent tests — never observe each other.
#[derive(Debug, Default)]
pub struct ArenaStats {
    /// Pages currently attached to live runs issued by this arena. A run
    /// decrements on drop or recycle, so after a job has recycled (or
    /// dropped) every payload this must be exactly 0: >0 is a leak, <0 a
    /// double free.
    live_pages: AtomicI64,
    /// Bytes copied on the hand-over path (flattening a multi-page run
    /// for [`ShufflePayload::contiguous`]). The zero-copy invariant test
    /// asserts this stays 0 for a Deca run.
    copied_bytes: AtomicU64,
    /// Runs / pages / payload bytes handed over to the exchange.
    handed_runs: AtomicU64,
    handed_pages: AtomicU64,
    handed_bytes: AtomicU64,
    /// Pool hits: pages / byte buffers reused instead of freshly allocated.
    pages_reused: AtomicU64,
    bufs_reused: AtomicU64,
}

impl ArenaStats {
    pub fn live_pages(&self) -> i64 {
        self.live_pages.load(Ordering::SeqCst)
    }

    pub fn copied_bytes(&self) -> u64 {
        self.copied_bytes.load(Ordering::SeqCst)
    }

    pub fn handed_runs(&self) -> u64 {
        self.handed_runs.load(Ordering::SeqCst)
    }

    pub fn handed_pages(&self) -> u64 {
        self.handed_pages.load(Ordering::SeqCst)
    }

    pub fn handed_bytes(&self) -> u64 {
        self.handed_bytes.load(Ordering::SeqCst)
    }

    pub fn pages_reused(&self) -> u64 {
        self.pages_reused.load(Ordering::SeqCst)
    }

    pub fn bufs_reused(&self) -> u64 {
        self.bufs_reused.load(Ordering::SeqCst)
    }

    /// Record a copy performed on the hand-over path.
    pub fn count_copy(&self, bytes: u64) {
        self.copied_bytes.fetch_add(bytes, Ordering::SeqCst);
    }

    /// Record one run handed over to the exchange.
    pub fn count_handover(&self, pages: u64, bytes: u64) {
        self.handed_runs.fetch_add(1, Ordering::SeqCst);
        self.handed_pages.fetch_add(pages, Ordering::SeqCst);
        self.handed_bytes.fetch_add(bytes, Ordering::SeqCst);
    }
}

/// A run of pages holding one map task's output for one reducer, in
/// append order. Records never span pages (mirroring [`PageGroup`]'s
/// no-span invariant), so iterating [`PageRun::chunks`] record-by-record
/// yields exactly the byte sequence a contiguous buffer would.
///
/// Dropping a run returns its pages to the allocator and decrements the
/// issuing arena's live-page count — a failed or speculative-loser map
/// attempt cleans up structurally, it cannot leak pages.
pub struct PageRun {
    /// `(page, used bytes)` — only the used prefix is payload.
    pages: Vec<(Page, usize)>,
    len: usize,
    stats: Arc<ArenaStats>,
}

impl std::fmt::Debug for PageRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageRun").field("pages", &self.pages.len()).field("len", &self.len).finish()
    }
}

impl PageRun {
    /// Payload bytes appended so far.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Append one record, given as concatenated parts (so callers can
    /// write `key ++ value` without building a temporary). The record is
    /// kept whole within one page; oversized records get a dedicated
    /// page of exactly their size, as [`PageGroup::reserve`] does.
    pub fn push_parts(&mut self, arena: &mut ShuffleArena, parts: &[&[u8]]) {
        let total: usize = parts.iter().map(|p| p.len()).sum();
        match self.pages.last_mut() {
            Some((page, used)) if page.len() - *used >= total => {
                *used = write_parts(page, *used, parts);
            }
            _ => {
                let mut page = arena.take_page(total);
                let used = write_parts(&mut page, 0, parts);
                self.pages.push((page, used));
            }
        }
        self.len += total;
    }

    /// Append one whole record.
    pub fn push(&mut self, arena: &mut ShuffleArena, record: &[u8]) {
        self.push_parts(arena, &[record]);
    }

    /// The used prefix of each page, in append order. Concatenated, the
    /// chunks are the run's exact payload byte sequence.
    pub fn chunks(&self) -> impl Iterator<Item = &[u8]> {
        self.pages.iter().map(|(p, used)| &p.bytes()[..*used])
    }

    /// Flatten into one owned buffer, **counting every byte as a
    /// hand-over copy** against the arena.
    fn to_vec_counted(&self) -> Vec<u8> {
        self.stats.count_copy(self.len as u64);
        let mut out = Vec::with_capacity(self.len);
        for chunk in self.chunks() {
            out.extend_from_slice(chunk);
        }
        out
    }
}

/// Write `parts` back to back into `page` from byte `at`; returns where
/// they end.
#[inline]
fn write_parts(page: &mut Page, at: usize, parts: &[&[u8]]) -> usize {
    parts.iter().fold(at, |at, part| {
        page.write_bytes(at, part);
        at + part.len()
    })
}

impl Drop for PageRun {
    fn drop(&mut self) {
        if !self.pages.is_empty() {
            self.stats.live_pages.fetch_sub(self.pages.len() as i64, Ordering::SeqCst);
        }
    }
}

/// Per-executor pool of shuffle pages and byte buffers, reused across
/// shuffle rounds (pagerank-style iterative jobs allocate their steady
/// state once instead of once per iteration).
///
/// The arena's pages live *outside* the GC'd heap budget on purpose:
/// shuffle output is in flight to another executor, and charging it to
/// the producer's old generation would perturb the delicate OOM/eviction
/// behaviour the fault matrix pins down.
#[derive(Debug)]
pub struct ShuffleArena {
    page_size: usize,
    free_pages: Vec<Page>,
    free_bufs: Vec<Vec<u8>>,
    stats: Arc<ArenaStats>,
}

impl ShuffleArena {
    pub fn new(page_size: usize) -> ShuffleArena {
        assert!(page_size > 0, "shuffle arena needs a non-zero page size");
        ShuffleArena {
            page_size,
            free_pages: Vec::new(),
            free_bufs: Vec::new(),
            stats: Arc::new(ArenaStats::default()),
        }
    }

    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// The shared counters (live pages, hand-over copies, pool hits).
    pub fn stats(&self) -> &Arc<ArenaStats> {
        &self.stats
    }

    /// Start an empty run. Pages are attached lazily on first push.
    pub fn new_run(&self) -> PageRun {
        PageRun { pages: Vec::new(), len: 0, stats: Arc::clone(&self.stats) }
    }

    /// Take a page able to hold `min` bytes: a pooled standard page when
    /// it fits, a fresh standard page otherwise, or a dedicated page of
    /// exactly `min` bytes for oversized records.
    fn take_page(&mut self, min: usize) -> Page {
        self.stats.live_pages.fetch_add(1, Ordering::SeqCst);
        if min <= self.page_size {
            match self.free_pages.pop() {
                Some(p) => {
                    self.stats.pages_reused.fetch_add(1, Ordering::SeqCst);
                    p
                }
                None => Page::new(self.page_size),
            }
        } else {
            Page::new(min)
        }
    }

    /// Take a cleared byte buffer with at least `cap` capacity (the
    /// Spark/SparkSer serialization target, pooled across rounds).
    pub fn take_buf(&mut self, cap: usize) -> Vec<u8> {
        match self.free_bufs.pop() {
            Some(mut v) => {
                self.stats.bufs_reused.fetch_add(1, Ordering::SeqCst);
                v.clear();
                if v.capacity() < cap {
                    v.reserve(cap - v.capacity());
                }
                v
            }
            None => Vec::with_capacity(cap),
        }
    }

    /// Return a consumed byte buffer to the pool.
    pub fn recycle_buf(&mut self, mut buf: Vec<u8>) {
        buf.clear();
        if buf.capacity() > 0 {
            self.free_bufs.push(buf);
        }
    }

    /// Return a consumed run's pages to this pool. The run's live-page
    /// count is settled against its *issuing* arena, so cross-executor
    /// recycling (reducer-side pages pooling where they were consumed)
    /// keeps every arena's ledger exact.
    pub fn recycle_run(&mut self, mut run: PageRun) {
        if !run.pages.is_empty() {
            run.stats.live_pages.fetch_sub(run.pages.len() as i64, Ordering::SeqCst);
        }
        for (page, _) in run.pages.drain(..) {
            // Only standard-size pages pool; oversized dedicated pages drop.
            if page.len() == self.page_size {
                self.free_pages.push(page);
            }
        }
        // `pages` is empty now, so the run's Drop decrements nothing more.
    }

    /// Return a consumed payload (either variant) to this pool.
    pub fn recycle(&mut self, payload: ShufflePayload) {
        match payload {
            ShufflePayload::Bytes(b) => self.recycle_buf(b),
            ShufflePayload::Pages(r) => self.recycle_run(r),
        }
    }

    /// Pages currently sitting in the pool.
    #[cfg(test)]
    pub fn pooled_pages(&self) -> usize {
        self.free_pages.len()
    }
}

/// One map task's output for one reducer, as it crosses the exchange.
///
/// `Pages` moves page ownership (Deca's zero-copy hand-over); `Bytes` is
/// the serialized-buffer format Spark/SparkSer keep (drawn from the
/// arena's buffer pool). Both expose the same chunked byte view, and
/// records never span chunks, so consumers parse identically either way.
#[derive(Debug)]
pub enum ShufflePayload {
    Bytes(Vec<u8>),
    Pages(PageRun),
}

impl From<Vec<u8>> for ShufflePayload {
    fn from(b: Vec<u8>) -> ShufflePayload {
        ShufflePayload::Bytes(b)
    }
}

impl ShufflePayload {
    /// Payload bytes.
    pub fn len(&self) -> usize {
        match self {
            ShufflePayload::Bytes(b) => b.len(),
            ShufflePayload::Pages(r) => r.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pages moved by this payload (0 for the byte format).
    pub fn page_count(&self) -> usize {
        match self {
            ShufflePayload::Bytes(_) => 0,
            ShufflePayload::Pages(r) => r.page_count(),
        }
    }

    /// The payload as contiguous byte chunks, in order. Records never
    /// span chunks.
    pub fn chunks(&self) -> PayloadChunks<'_> {
        match self {
            ShufflePayload::Bytes(b) => PayloadChunks::Bytes(Some(b.as_slice()).into_iter()),
            ShufflePayload::Pages(r) => PayloadChunks::Pages(r.pages.iter()),
        }
    }

    /// A contiguous view. Borrows for the byte format and single-page
    /// runs; a multi-page run must flatten, and that copy is counted
    /// against the arena (the zero-copy test would catch a consumer
    /// using this on the Deca hand-over path).
    pub fn contiguous(&self) -> Cow<'_, [u8]> {
        match self {
            ShufflePayload::Bytes(b) => Cow::Borrowed(b.as_slice()),
            ShufflePayload::Pages(r) => match r.pages.len() {
                0 => Cow::Borrowed(&[][..]),
                1 => {
                    let (p, used) = &r.pages[0];
                    Cow::Borrowed(&p.bytes()[..*used])
                }
                _ => Cow::Owned(r.to_vec_counted()),
            },
        }
    }
}

/// Iterator over a payload's byte chunks (see [`ShufflePayload::chunks`]).
pub enum PayloadChunks<'a> {
    Bytes(std::option::IntoIter<&'a [u8]>),
    Pages(std::slice::Iter<'a, (Page, usize)>),
}

impl<'a> Iterator for PayloadChunks<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        match self {
            PayloadChunks::Bytes(it) => it.next(),
            PayloadChunks::Pages(it) => it.next().map(|(p, used)| &p.bytes()[..*used]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::DecaRecord;
    use deca_heap::HeapConfig;
    use std::collections::HashMap;
    use std::path::PathBuf;

    fn setup() -> (Heap, MemoryManager) {
        let dir: PathBuf = std::env::temp_dir().join(format!(
            "deca-shuffle-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        (Heap::new(HeapConfig::small()), MemoryManager::new(8192, dir))
    }

    fn add_i64(existing: &mut [u8], new: &[u8]) {
        let a = i64::from_le_bytes(existing[..8].try_into().unwrap());
        let b = i64::from_le_bytes(new[..8].try_into().unwrap());
        existing[..8].copy_from_slice(&(a + b).to_le_bytes());
    }

    #[test]
    fn eager_aggregation_matches_sequential_fold() {
        let (mut heap, mut mm) = setup();
        let mut buf = DecaHashShuffle::new(&mut mm, 8, 8);
        let mut expected: HashMap<i64, i64> = HashMap::new();
        // Zipf-ish key stream with many repeats.
        for i in 0..50_000i64 {
            let key = (i * i) % 997;
            *expected.entry(key).or_insert(0) += 1;
            let mut kb = [0u8; 8];
            let mut vb = [0u8; 8];
            key.encode(&mut kb);
            1i64.encode(&mut vb);
            buf.insert(&mut mm, &mut heap, &kb, &vb, add_i64).unwrap();
        }
        assert_eq!(buf.len(), expected.len());
        assert_eq!(buf.combines, 50_000 - expected.len() as u64);
        let mut got: HashMap<i64, i64> = HashMap::new();
        buf.for_each(&mut mm, &mut heap, |k, v| {
            got.insert(i64::decode(k), i64::decode(v));
        })
        .unwrap();
        assert_eq!(got, expected);
        // Hundreds of distinct keys occupy only a handful of pages.
        assert!(heap.external_count() < 10);
        buf.release(&mut mm, &mut heap);
        assert_eq!(heap.external_bytes(), 0);
    }

    #[test]
    fn table_growth_preserves_entries() {
        let (mut heap, mut mm) = setup();
        let mut buf = DecaHashShuffle::new(&mut mm, 8, 8);
        for key in 0..5_000i64 {
            let mut kb = [0u8; 8];
            let mut vb = [0u8; 8];
            key.encode(&mut kb);
            (key * 2).encode(&mut vb);
            buf.insert(&mut mm, &mut heap, &kb, &vb, add_i64).unwrap();
        }
        assert_eq!(buf.len(), 5_000);
        let mut seen = 0usize;
        buf.for_each(&mut mm, &mut heap, |k, v| {
            assert_eq!(i64::decode(v), i64::decode(k) * 2);
            seen += 1;
        })
        .unwrap();
        assert_eq!(seen, 5_000);
        buf.release(&mut mm, &mut heap);
    }

    #[test]
    fn page_run_keeps_records_whole_and_bytes_exact() {
        let mut arena = ShuffleArena::new(32);
        let mut run = arena.new_run();
        let mut expected = Vec::new();
        for i in 0..20u8 {
            let rec = [i; 10];
            run.push_parts(&mut arena, &[&rec[..4], &rec[4..]]);
            expected.extend_from_slice(&rec);
        }
        assert_eq!(run.len(), 200);
        // 32-byte pages hold 3 ten-byte records: records never span pages.
        let flat: Vec<u8> = run.chunks().flat_map(|c| c.to_vec()).collect();
        assert_eq!(flat, expected);
        for chunk in run.chunks() {
            assert_eq!(chunk.len() % 10, 0, "no record spans a page boundary");
        }
        assert_eq!(arena.stats().live_pages(), run.page_count() as i64);
        drop(run);
        assert_eq!(arena.stats().live_pages(), 0, "drop settles the ledger");
    }

    #[test]
    fn arena_recycles_pages_and_reuses_them() {
        let mut arena = ShuffleArena::new(64);
        let mut run = arena.new_run();
        run.push(&mut arena, &[1u8; 40]);
        run.push(&mut arena, &[2u8; 40]);
        assert_eq!(run.page_count(), 2);
        arena.recycle_run(run);
        assert_eq!(arena.stats().live_pages(), 0);
        assert_eq!(arena.pooled_pages(), 2);
        let mut again = arena.new_run();
        again.push(&mut arena, &[3u8; 10]);
        assert_eq!(arena.stats().pages_reused(), 1, "pool hit on the next round");
        arena.recycle(ShufflePayload::Pages(again));
        assert_eq!(arena.stats().live_pages(), 0);
    }

    #[test]
    fn oversized_records_get_dedicated_unpooled_pages() {
        let mut arena = ShuffleArena::new(16);
        let mut run = arena.new_run();
        run.push(&mut arena, &[9u8; 100]);
        run.push(&mut arena, &[1u8; 8]);
        assert_eq!(run.page_count(), 2);
        let chunks: Vec<&[u8]> = run.chunks().collect();
        assert_eq!(chunks[0], &[9u8; 100][..]);
        assert_eq!(chunks[1], &[1u8; 8][..]);
        arena.recycle_run(run);
        assert_eq!(arena.pooled_pages(), 1, "the dedicated page does not pool");
        assert_eq!(arena.stats().live_pages(), 0);
    }

    #[test]
    fn payload_contiguous_borrows_until_it_must_copy() {
        let mut arena = ShuffleArena::new(64);
        // Byte format: always borrowed.
        let bytes = ShufflePayload::from(vec![1u8, 2, 3]);
        assert!(matches!(bytes.contiguous(), Cow::Borrowed(b) if b == [1, 2, 3]));
        // Single-page run: borrowed, zero copies.
        let mut one = arena.new_run();
        one.push(&mut arena, &[7u8; 10]);
        let p1 = ShufflePayload::Pages(one);
        assert!(matches!(p1.contiguous(), Cow::Borrowed(_)));
        assert_eq!(arena.stats().copied_bytes(), 0);
        // Multi-page run: owned, and the copy is counted.
        let mut two = arena.new_run();
        two.push(&mut arena, &[1u8; 40]);
        two.push(&mut arena, &[2u8; 40]);
        let p2 = ShufflePayload::Pages(two);
        assert_eq!(p2.contiguous().len(), 80);
        assert_eq!(arena.stats().copied_bytes(), 80);
        arena.recycle(p1);
        arena.recycle(p2);
        assert_eq!(arena.stats().live_pages(), 0);
    }

    #[test]
    fn buf_pool_reuses_capacity_across_rounds() {
        let mut arena = ShuffleArena::new(64);
        let mut buf = arena.take_buf(128);
        assert_eq!(arena.stats().bufs_reused(), 0);
        buf.extend_from_slice(&[5u8; 100]);
        let cap = buf.capacity();
        arena.recycle_buf(buf);
        let again = arena.take_buf(16);
        assert!(again.is_empty(), "recycled buffers come back cleared");
        assert!(again.capacity() >= cap.min(128));
        assert_eq!(arena.stats().bufs_reused(), 1);
    }

    #[test]
    fn segment_reuse_keeps_footprint_flat() {
        let (mut heap, mut mm) = setup();
        let mut buf = DecaHashShuffle::new(&mut mm, 8, 8);
        let mut kb = [0u8; 8];
        let mut vb = [0u8; 8];
        7i64.encode(&mut kb);
        1i64.encode(&mut vb);
        buf.insert(&mut mm, &mut heap, &kb, &vb, add_i64).unwrap();
        let first = (heap.external_bytes(), heap.external_count(), buf.off_page_bytes());
        for _ in 1..100_000 {
            buf.insert(&mut mm, &mut heap, &kb, &vb, add_i64).unwrap();
        }
        // One key: 100k combines reuse its slot; the table never grows.
        assert_eq!(buf.len(), 1);
        assert_eq!((heap.external_bytes(), heap.external_count(), buf.off_page_bytes()), first);
        let mut total = 0i64;
        buf.for_each(&mut mm, &mut heap, |_, v| total = i64::decode(v)).unwrap();
        assert_eq!(total, 100_000);
        buf.release(&mut mm, &mut heap);
    }

    #[test]
    fn growth_releases_the_old_table_group() {
        let (mut heap, mut mm) = setup();
        mm.log_releases = true;
        let mut buf = DecaHashShuffle::new(&mut mm, 8, 8);
        let pairs = (0..5_000i64).map(|k| (k.to_le_bytes(), 1i64.to_le_bytes()));
        buf.insert_all(&mut mm, &mut heap, pairs, add_i64).unwrap();
        // 512 slots per 8 KiB page: 512 → 1024 → … → 8192 slots, each
        // outgrown table released whole when its successor is built.
        let released: Vec<usize> = mm.take_release_events().iter().map(|e| e.pages).collect();
        assert_eq!(released, [1, 2, 4, 8]);
        assert_eq!(mm.live_groups(), 1, "only the live table's group remains");
        // Only the live table is on the budget: 16-byte slots, 8 KiB pages.
        assert_eq!(heap.external_bytes(), buf.off_page_bytes() * 16);
        buf.release(&mut mm, &mut heap);
        assert_eq!(heap.external_bytes(), 0);
        assert_eq!(mm.live_groups(), 0);
    }

    /// A tight heap holding one swappable cache group: the insert that
    /// must grow the table evicts the cache, never the buffer, and no
    /// record is lost or applied twice on the way.
    #[test]
    fn growth_under_budget_pressure_swaps_the_cache_not_the_buffer() {
        use deca_check::property::{check, gens, Config};
        check(
            Config::with_cases(12),
            gens::vec_of(gens::pair(gens::i64_in(0..700), gens::i64_in(-50..50)), 1_500..3_000),
            |stream| {
                let (mut heap, mut mm) = setup();
                let mut buf = DecaHashShuffle::new(&mut mm, 8, 8);
                // One record allocates the first table page ...
                let (k0, v0) = stream[0];
                buf.insert(&mut mm, &mut heap, &k0.to_le_bytes(), &v0.to_le_bytes(), add_i64)
                    .unwrap();
                // ... then the cache takes every byte of budget left but
                // one page (held by a pinned spacer until it is full), so
                // the growth below reserves one page of its new table
                // before it must evict the cache for the next.
                let spacer = mm.create_group();
                mm.set_swappable(&spacer, false);
                mm.with_group_mut(&spacer, &mut heap, |g, h| g.append(h, &[0u8; 8192])).unwrap();
                let victim = mm.create_group();
                while mm
                    .with_group_mut(&victim, &mut heap, |g, h| g.append(h, &[3u8; 8192]))
                    .is_ok()
                {}
                mm.release(spacer, &mut heap);
                let pairs = stream[1..].iter().map(|&(k, v)| (k.to_le_bytes(), v.to_le_bytes()));
                buf.insert_all(&mut mm, &mut heap, pairs, add_i64).unwrap();
                let mut expected: HashMap<i64, i64> = HashMap::new();
                for &(k, v) in stream {
                    *expected.entry(k).or_insert(0) += v;
                }
                // Over 358 keys outgrow the first 512-slot page; under 700 fit the
                // 1024-slot table the retried growth built, so it is the one
                // still live below.
                deca_check::prop_assert!(expected.len() > 358, "the stream must outgrow a page");
                deca_check::prop_assert!(mm.is_swapped(&victim), "the cache group was evicted");
                deca_check::prop_assert!(!mm.is_swapped(buf.group()), "the buffer stays pinned");
                // The retried reservation added no page twice: the budget
                // holds exactly the live table, 16-byte slots.
                deca_check::prop_assert_eq!(heap.external_bytes(), buf.off_page_bytes() * 16);
                let mut got: HashMap<i64, i64> = HashMap::new();
                buf.for_each(&mut mm, &mut heap, |k, v| {
                    got.insert(i64::decode(k), i64::decode(v));
                })
                .unwrap();
                deca_check::prop_assert_eq!(got, expected);
                deca_check::prop_assert_eq!(buf.combines + buf.len() as u64, stream.len() as u64);
                buf.release(&mut mm, &mut heap);
                deca_check::prop_assert_eq!(heap.external_bytes(), 0);
                deca_check::prop_assert_eq!(mm.live_groups(), 1, "only the swapped cache lives");
                mm.release(victim, &mut heap);
                Ok(())
            },
        );
    }

    /// `(key_size, val_size)` of the hinted-table property: PageRank's
    /// 16-byte slots, a 4-byte key in a 12-byte slot (682 fit an 8 KiB
    /// page, of which the table uses 512), and wide 32- and 64-byte slots.
    const GEOMETRIES: [(usize, usize); 4] = [(8, 8), (4, 8), (12, 20), (24, 40)];

    /// Key `id` in `size` bytes: its low four bytes, repeated, each XORed
    /// with its position, so distinct ids give distinct keys.
    fn key_bytes(id: u32, size: usize) -> Vec<u8> {
        (0..size).map(|i| (id >> (8 * (i % 4))) as u8 ^ i as u8).collect()
    }

    /// Value `v` in `size` bytes: the `i64` [`add_i64`] sums, then filler
    /// that a combine must leave alone.
    fn value_bytes(v: i64, size: usize) -> Vec<u8> {
        let mut out = v.to_le_bytes().to_vec();
        out.resize(size, 0xa5);
        out
    }

    /// What [`fill`] saw of one table.
    #[derive(Debug)]
    struct Filled {
        contents: HashMap<Vec<u8>, Vec<u8>>,
        /// Slots after the first insert, and at the end.
        first: usize,
        capacity: usize,
        grows: u64,
        combines: u64,
    }

    /// Insert `pairs` into a table hinted with `keys`: the first pair
    /// alone, then, once `squeeze` has run, the rest in one batch. Reads
    /// the table back and releases it.
    fn fill(
        mm: &mut MemoryManager,
        heap: &mut Heap,
        (key_size, val_size): (usize, usize),
        keys: usize,
        pairs: &[(Vec<u8>, Vec<u8>)],
        squeeze: impl FnOnce(&mut MemoryManager, &mut Heap),
    ) -> Filled {
        let mut buf = DecaHashShuffle::with_keys(mm, key_size, val_size, keys);
        let (k0, v0) = &pairs[0];
        buf.insert(mm, heap, k0, v0, add_i64).unwrap();
        // One control byte per slot.
        let first = buf.off_page_bytes();
        squeeze(mm, heap);
        let rest = pairs[1..].iter().map(|(k, v)| (k.as_slice(), v.as_slice()));
        buf.insert_all(mm, heap, rest, add_i64).unwrap();
        let mut contents = HashMap::new();
        buf.for_each(mm, heap, |k, v| {
            contents.insert(k.to_vec(), v.to_vec());
        })
        .unwrap();
        let filled = Filled {
            contents,
            first,
            capacity: buf.off_page_bytes(),
            grows: buf.grows,
            combines: buf.combines,
        };
        buf.release(mm, heap);
        filled
    }

    /// A table hinted with the number of distinct keys it will hold is the
    /// table growth ends at, built without growing; an undercount grows by
    /// doubling to the same size; and every record is applied exactly once
    /// with or without a hint, including across a growth that must evict
    /// the cache to fit.
    #[test]
    fn a_hinted_table_matches_a_grown_table_and_a_hash_map_fold() {
        use deca_check::property::{check, gens, Config};
        check(
            Config::with_cases(12),
            gens::pair(
                gens::u32_in(0..GEOMETRIES.len() as u32),
                gens::vec_of(
                    gens::pair(gens::u32_in(0..3_000), gens::i64_in(-50..50)),
                    2_000..4_000,
                ),
            ),
            |(g, stream)| {
                let geometry = GEOMETRIES[*g as usize];
                let pairs: Vec<(Vec<u8>, Vec<u8>)> = stream
                    .iter()
                    .map(|&(k, v)| (key_bytes(k, geometry.0), value_bytes(v, geometry.1)))
                    .collect();
                let mut oracle: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
                for (k, v) in &pairs {
                    match oracle.get_mut(k) {
                        Some(acc) => add_i64(acc, v),
                        None => drop(oracle.insert(k.clone(), v.clone())),
                    }
                }
                let distinct = oracle.len();
                let combines = (pairs.len() - distinct) as u64;
                let (mut heap, mut mm) = setup();
                let mut fill_hinted =
                    |keys| fill(&mut mm, &mut heap, geometry, keys, &pairs, |_, _| {});

                let grown = fill_hinted(0);
                deca_check::prop_assert!(grown.grows >= 2, "the keys outgrow one page twice");
                deca_check::prop_assert_eq!(grown.capacity, grown.first << grown.grows);
                let exact = fill_hinted(distinct);
                deca_check::prop_assert_eq!((exact.first, exact.grows), (grown.capacity, 0));
                let over = fill_hinted(2 * distinct);
                deca_check::prop_assert_eq!((over.first, over.grows), (over.capacity, 0));
                deca_check::prop_assert!(over.capacity >= grown.capacity);
                let under = fill_hinted(distinct / 3);
                deca_check::prop_assert!(under.first > grown.first, "the hint skips a doubling");
                deca_check::prop_assert!(under.grows >= 1, "an undercount still grows");
                deca_check::prop_assert_eq!(under.capacity, grown.capacity);
                deca_check::prop_assert_eq!(under.capacity, under.first << under.grows);
                for table in [&grown, &exact, &over, &under] {
                    deca_check::prop_assert_eq!(&table.contents, &oracle);
                    deca_check::prop_assert_eq!(table.combines, combines);
                }

                // An undercount whose growth finds the budget held by a
                // swappable cache group evicts it and resumes the batch at
                // the pair that found the table full.
                let victim = mm.create_group();
                let squeezed =
                    fill(&mut mm, &mut heap, geometry, distinct / 3, &pairs, |mm, heap| {
                        while mm
                            .with_group_mut(&victim, heap, |g, h| g.append(h, &[3u8; 8192]))
                            .is_ok()
                        {}
                    });
                deca_check::prop_assert!(mm.is_swapped(&victim), "the cache group was evicted");
                deca_check::prop_assert_eq!(squeezed.grows, under.grows);
                deca_check::prop_assert_eq!(&squeezed.contents, &oracle);
                deca_check::prop_assert_eq!(squeezed.combines, combines);
                mm.release(victim, &mut heap);
                deca_check::prop_assert_eq!(heap.external_bytes(), 0);
                deca_check::prop_assert_eq!(mm.live_groups(), 0);
                Ok(())
            },
        );
    }
}
