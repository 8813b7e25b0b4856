//! Decomposed shuffle buffers (§4.2–§4.3, Figure 6b).
//!
//! Two buffer shapes, matching Spark's shuffle implementations:
//!
//! * [`DecaHashShuffle`] — hash-based with **eager combining**
//!   (`reduceByKey`): Key/Value pairs live in pages; an open-addressing
//!   table of [`SegPtr`]s locates them. When both K and V are SFSTs the
//!   combine **reuses the old value's page segment in place** — the paper's
//!   fix for the "Value object dies on every aggregate" churn that saturates
//!   the GC in WordCount (§4.3.2, Figure 8a).
//! * [`DecaSortShuffle`] — sort-based: framed entries appended to pages, a
//!   pointer array sorted by key at the end (pointers are sorted, bytes
//!   never move).
//!
//! Shuffle buffers pin their page groups (Appendix C: Deca evicts cache
//! blocks rather than spilling pointer-only shuffle state).

use std::borrow::Cow;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use deca_heap::Heap;

use crate::group::SegPtr;
use crate::manager::{GroupId, MemError, MemoryManager};
use crate::page::Page;

/// FNV-1a over key bytes — cheap and deterministic.
fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Hash-based shuffle buffer with eager combining over decomposed
/// fixed-size keys and values.
#[derive(Debug)]
pub struct DecaHashShuffle {
    group: GroupId,
    key_size: usize,
    val_size: usize,
    /// Open-addressing table of pointers to key segments (the value
    /// follows the key within the same segment).
    table: Vec<Option<SegPtr>>,
    len: usize,
    /// In-place combines performed (each one is a GC'd temporary avoided).
    pub combines: u64,
    released: bool,
}

impl DecaHashShuffle {
    /// Create a buffer for SFST keys of `key_size` bytes and SFST values of
    /// `val_size` bytes.
    pub fn new(mm: &mut MemoryManager, key_size: usize, val_size: usize) -> DecaHashShuffle {
        let group = mm.create_group();
        mm.set_swappable(group, false);
        DecaHashShuffle {
            group,
            key_size,
            val_size,
            table: vec![None; 1024],
            len: 0,
            combines: 0,
            released: false,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn group(&self) -> GroupId {
        self.group
    }

    /// Insert a pair, eagerly combining when the key exists:
    /// `combine(existing_value, new_value)` mutates the existing value's
    /// bytes in place (§4.3.2 segment reuse — no allocation, no GC work).
    pub fn insert(
        &mut self,
        mm: &mut MemoryManager,
        heap: &mut Heap,
        key: &[u8],
        val: &[u8],
        mut combine: impl FnMut(&mut [u8], &[u8]),
    ) -> Result<(), MemError> {
        assert_eq!(key.len(), self.key_size);
        assert_eq!(val.len(), self.val_size);
        if (self.len + 1) * 10 > self.table.len() * 7 {
            self.grow(mm, heap)?;
        }
        let mask = self.table.len() - 1;
        let mut idx = (hash_bytes(key) as usize) & mask;
        let (key_size, val_size) = (self.key_size, self.val_size);
        let table = &mut self.table;
        let len = &mut self.len;
        let combines = &mut self.combines;
        mm.with_group_mut(self.group, heap, |g, h| loop {
            match table[idx] {
                Some(ptr) if g.slice(ptr, key_size) == key => {
                    let vptr = SegPtr { page: ptr.page, off: ptr.off + key_size as u32 };
                    combine(g.slice_mut(vptr, val_size), val);
                    *combines += 1;
                    return Ok(());
                }
                Some(_) => idx = (idx + 1) & mask,
                None => {
                    let ptr = g.reserve(h, key_size + val_size)?;
                    g.slice_mut(ptr, key_size).copy_from_slice(key);
                    let vptr = SegPtr { page: ptr.page, off: ptr.off + key_size as u32 };
                    g.slice_mut(vptr, val_size).copy_from_slice(val);
                    table[idx] = Some(ptr);
                    *len += 1;
                    return Ok(());
                }
            }
        })
    }

    fn grow(&mut self, mm: &mut MemoryManager, heap: &mut Heap) -> Result<(), MemError> {
        let new_cap = self.table.len() * 2;
        let old = std::mem::replace(&mut self.table, vec![None; new_cap]);
        let mask = new_cap - 1;
        let key_size = self.key_size;
        let table = &mut self.table;
        mm.with_group(self.group, heap, |g| {
            for ptr in old.into_iter().flatten() {
                let mut idx = (hash_bytes(g.slice(ptr, key_size)) as usize) & mask;
                while table[idx].is_some() {
                    idx = (idx + 1) & mask;
                }
                table[idx] = Some(ptr);
            }
        })
    }

    /// Visit every (key, value) byte pair.
    pub fn for_each(
        &self,
        mm: &mut MemoryManager,
        heap: &mut Heap,
        mut f: impl FnMut(&[u8], &[u8]),
    ) -> Result<(), MemError> {
        let (key_size, val_size) = (self.key_size, self.val_size);
        let table = &self.table;
        mm.with_group(self.group, heap, |g| {
            for ptr in table.iter().flatten() {
                let kv = g.slice(*ptr, key_size + val_size);
                f(&kv[..key_size], &kv[key_size..]);
            }
        })
    }

    /// Release the buffer's page group (end of the reading phase).
    pub fn release(&mut self, mm: &mut MemoryManager, heap: &mut Heap) {
        if !self.released {
            mm.release(self.group, heap);
            self.released = true;
        }
    }
}

/// Sort-based shuffle buffer: framed entries plus a pointer array sorted at
/// close. Bytes never move — only pointers are sorted (Figure 6b).
///
/// Under memory pressure the buffer spills **sorted runs** to disk
/// (Appendix C: "Deca sorts the pointers before spilling, and writes the
/// spilled data into files according to the order of the pointers"), and
/// [`DecaSortShuffle::merge_sorted`] streams a k-way merge of the runs
/// plus the in-memory remainder.
#[derive(Debug)]
pub struct DecaSortShuffle {
    group: GroupId,
    /// (entry pointer, entry length) — the pointer array.
    ptrs: Vec<(SegPtr, u32)>,
    /// Sorted spilled run files.
    runs: Vec<std::path::PathBuf>,
    /// Bytes written to run files.
    pub spilled_bytes: u64,
    /// Process-unique id for run file names (group ids are reused slots,
    /// so they alone could collide across shuffle instances).
    nonce: u64,
    released: bool,
}

static SORT_SHUFFLE_NONCE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl DecaSortShuffle {
    pub fn new(mm: &mut MemoryManager) -> DecaSortShuffle {
        let group = mm.create_group();
        mm.set_swappable(group, false);
        DecaSortShuffle {
            group,
            ptrs: Vec::new(),
            runs: Vec::new(),
            spilled_bytes: 0,
            nonce: SORT_SHUFFLE_NONCE.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            released: false,
        }
    }

    /// In-memory entry count (spilled runs excluded).
    pub fn len(&self) -> usize {
        self.ptrs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ptrs.is_empty() && self.runs.is_empty()
    }

    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Append one encoded entry (key and value concatenated; the caller's
    /// comparator knows the key prefix).
    pub fn append(
        &mut self,
        mm: &mut MemoryManager,
        heap: &mut Heap,
        entry: &[u8],
    ) -> Result<(), MemError> {
        let ptr = mm.with_group_mut(self.group, heap, |g, h| g.append_framed(h, entry))?;
        self.ptrs.push((ptr, entry.len() as u32));
        Ok(())
    }

    /// Sort the pointer array by a key extracted from each entry's bytes,
    /// then visit entries in order.
    pub fn sorted_for_each<K: Ord>(
        &mut self,
        mm: &mut MemoryManager,
        heap: &mut Heap,
        key_of: impl Fn(&[u8]) -> K,
        mut f: impl FnMut(&[u8]),
    ) -> Result<(), MemError> {
        let ptrs = &mut self.ptrs;
        mm.with_group(self.group, heap, |g| {
            ptrs.sort_by_key(|(ptr, len)| key_of(g.slice(*ptr, *len as usize)));
            for (ptr, len) in ptrs.iter() {
                f(g.slice(*ptr, *len as usize));
            }
        })
    }

    /// Spill the in-memory entries as one sorted run file, releasing the
    /// pages (Appendix C). Returns the bytes written.
    pub fn spill_run<K: Ord>(
        &mut self,
        mm: &mut MemoryManager,
        heap: &mut Heap,
        key_of: impl Fn(&[u8]) -> K,
    ) -> Result<u64, MemError> {
        use std::io::Write;
        if self.ptrs.is_empty() {
            return Ok(0);
        }
        let dir = mm.spill_dir().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(MemError::Io)?;
        let path = dir.join(format!("sort-run-{}-{}.spill", self.nonce, self.runs.len()));
        let ptrs = &mut self.ptrs;
        let mut written = 0u64;
        mm.with_group(self.group, heap, |g| -> std::io::Result<()> {
            ptrs.sort_by_key(|(ptr, len)| key_of(g.slice(*ptr, *len as usize)));
            let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
            for (ptr, len) in ptrs.iter() {
                f.write_all(&len.to_le_bytes())?;
                f.write_all(g.slice(*ptr, *len as usize))?;
                written += 4 + *len as u64;
            }
            f.flush()
        })?
        .map_err(MemError::Io)?;
        self.ptrs.clear();
        self.spilled_bytes += written;
        // Release the drained pages and start a fresh group.
        mm.release(self.group, heap);
        self.group = mm.create_group();
        mm.set_swappable(self.group, false);
        self.runs.push(path);
        Ok(written)
    }

    /// Stream all entries in key order, k-way merging the spilled runs
    /// with the (sorted) in-memory remainder. The merge holds one record
    /// per source — the paper's "small memory space (normally only one
    /// page)".
    pub fn merge_sorted<K: Ord>(
        &mut self,
        mm: &mut MemoryManager,
        heap: &mut Heap,
        key_of: impl Fn(&[u8]) -> K,
        mut f: impl FnMut(&[u8]),
    ) -> Result<(), MemError> {
        use std::io::Read;

        /// One framed-record reader over a run file.
        struct RunSource {
            reader: std::io::BufReader<std::fs::File>,
            current: Option<Vec<u8>>,
        }
        impl RunSource {
            fn advance(&mut self) -> std::io::Result<()> {
                let mut lenb = [0u8; 4];
                match self.reader.read_exact(&mut lenb) {
                    Ok(()) => {
                        let len = u32::from_le_bytes(lenb) as usize;
                        let mut buf = vec![0u8; len];
                        self.reader.read_exact(&mut buf)?;
                        self.current = Some(buf);
                        Ok(())
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                        self.current = None;
                        Ok(())
                    }
                    Err(e) => Err(e),
                }
            }
        }

        let mut sources: Vec<RunSource> = Vec::new();
        for path in &self.runs {
            let mut src = RunSource {
                reader: std::io::BufReader::new(std::fs::File::open(path).map_err(MemError::Io)?),
                current: None,
            };
            src.advance().map_err(MemError::Io)?;
            sources.push(src);
        }

        // Sort the in-memory remainder and merge inside the group borrow.
        let ptrs = &mut self.ptrs;
        mm.with_group(self.group, heap, |g| -> std::io::Result<()> {
            ptrs.sort_by_key(|(ptr, len)| key_of(g.slice(*ptr, *len as usize)));
            let mut mem_idx = 0usize;
            loop {
                // Pick the minimum-key source among runs and memory.
                let mem_key =
                    ptrs.get(mem_idx).map(|(ptr, len)| key_of(g.slice(*ptr, *len as usize)));
                let mut best_run: Option<(usize, K)> = None;
                for (i, s) in sources.iter().enumerate() {
                    if let Some(cur) = &s.current {
                        let k = key_of(cur);
                        if best_run.as_ref().is_none_or(|(_, bk)| k < *bk) {
                            best_run = Some((i, k));
                        }
                    }
                }
                match (mem_key, best_run) {
                    (None, None) => return Ok(()),
                    (Some(_), None) => {
                        let (ptr, len) = ptrs[mem_idx];
                        f(g.slice(ptr, len as usize));
                        mem_idx += 1;
                    }
                    (None, Some((i, _))) => {
                        let rec = sources[i].current.take().expect("current");
                        f(&rec);
                        sources[i].advance()?;
                    }
                    (Some(mk), Some((i, rk))) => {
                        if mk <= rk {
                            let (ptr, len) = ptrs[mem_idx];
                            f(g.slice(ptr, len as usize));
                            mem_idx += 1;
                        } else {
                            let rec = sources[i].current.take().expect("current");
                            f(&rec);
                            sources[i].advance()?;
                        }
                    }
                }
            }
        })?
        .map_err(MemError::Io)?;
        Ok(())
    }

    pub fn release(&mut self, mm: &mut MemoryManager, heap: &mut Heap) {
        if !self.released {
            mm.release(self.group, heap);
            for path in self.runs.drain(..) {
                let _ = std::fs::remove_file(path);
            }
            self.released = true;
        }
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
        let fits = match self.pages.last() {
            Some((page, used)) => page.len() - used >= total,
            None => false,
        };
        if !fits {
            self.pages.push((arena.take_page(total), 0));
        }
        let (page, used) = self.pages.last_mut().expect("page just ensured");
        for part in parts {
            page.write_bytes(*used, part);
            *used += part.len();
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

    /// Pages currently sitting in the pool (observability / tests).
    pub fn pooled_pages(&self) -> usize {
        self.free_pages.len()
    }

    pub fn pooled_bufs(&self) -> usize {
        self.free_bufs.len()
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
    fn sort_shuffle_orders_by_key() {
        let (mut heap, mut mm) = setup();
        let mut buf = DecaSortShuffle::new(&mut mm);
        let keys = [5i64, 1, 9, 3, 7, 2, 8, 0, 6, 4];
        for &k in &keys {
            let entry = (k, k as f64 * 1.5);
            let mut bytes = vec![0u8; entry.data_size()];
            entry.encode(&mut bytes);
            buf.append(&mut mm, &mut heap, &bytes).unwrap();
        }
        let mut order = Vec::new();
        buf.sorted_for_each(&mut mm, &mut heap, i64::decode, |bytes| {
            let (k, v) = <(i64, f64)>::decode(bytes);
            assert_eq!(v, k as f64 * 1.5);
            order.push(k);
        })
        .unwrap();
        assert_eq!(order, (0..10).collect::<Vec<i64>>());
        buf.release(&mut mm, &mut heap);
        assert_eq!(heap.external_bytes(), 0);
    }

    #[test]
    fn spill_and_merge_produce_global_order() {
        let (mut heap, mut mm) = setup();
        let mut buf = DecaSortShuffle::new(&mut mm);
        // Three batches, spilling after each of the first two.
        let batches: [&[i64]; 3] = [&[50, 10, 90, 30], &[20, 80, 40], &[60, 0, 70, 100]];
        for (bi, batch) in batches.iter().enumerate() {
            for &k in batch.iter() {
                let entry = (k, k as f64);
                let mut bytes = vec![0u8; entry.data_size()];
                entry.encode(&mut bytes);
                buf.append(&mut mm, &mut heap, &bytes).unwrap();
            }
            if bi < 2 {
                let written = buf.spill_run(&mut mm, &mut heap, i64::decode).unwrap();
                assert!(written > 0);
                assert_eq!(buf.len(), 0, "pages drained after spill");
            }
        }
        assert_eq!(buf.run_count(), 2);
        let mut order = Vec::new();
        buf.merge_sorted(&mut mm, &mut heap, i64::decode, |bytes| {
            let (k, v) = <(i64, f64)>::decode(bytes);
            assert_eq!(v, k as f64);
            order.push(k);
        })
        .unwrap();
        assert_eq!(order, vec![0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        buf.release(&mut mm, &mut heap);
        assert_eq!(heap.external_bytes(), 0);
    }

    #[test]
    fn interleaved_sort_shuffles_do_not_clobber_each_others_runs() {
        let (mut heap, mut mm) = setup();
        let mut a = DecaSortShuffle::new(&mut mm);
        let mut b = DecaSortShuffle::new(&mut mm);
        let enc = |k: i64| {
            let e = (k, k as f64);
            let mut bytes = vec![0u8; e.data_size()];
            e.encode(&mut bytes);
            bytes
        };
        for k in [5i64, 1, 3] {
            a.append(&mut mm, &mut heap, &enc(k)).unwrap();
            b.append(&mut mm, &mut heap, &enc(k + 100)).unwrap();
        }
        a.spill_run(&mut mm, &mut heap, |x| i64::decode(x)).unwrap();
        b.spill_run(&mut mm, &mut heap, |x| i64::decode(x)).unwrap();
        for k in [4i64, 2] {
            a.append(&mut mm, &mut heap, &enc(k)).unwrap();
            b.append(&mut mm, &mut heap, &enc(k + 100)).unwrap();
        }
        let mut got_a = Vec::new();
        a.merge_sorted(
            &mut mm,
            &mut heap,
            |x| i64::decode(x),
            |x| got_a.push(<(i64, f64)>::decode(x).0),
        )
        .unwrap();
        let mut got_b = Vec::new();
        b.merge_sorted(
            &mut mm,
            &mut heap,
            |x| i64::decode(x),
            |x| got_b.push(<(i64, f64)>::decode(x).0),
        )
        .unwrap();
        assert_eq!(got_a, vec![1, 2, 3, 4, 5]);
        assert_eq!(got_b, vec![101, 102, 103, 104, 105]);
        a.release(&mut mm, &mut heap);
        b.release(&mut mm, &mut heap);
    }

    #[test]
    fn merge_with_duplicate_keys_is_stable_enough() {
        let (mut heap, mut mm) = setup();
        let mut buf = DecaSortShuffle::new(&mut mm);
        for k in [3i64, 1, 3, 2, 1] {
            let entry = (k, 0f64);
            let mut bytes = vec![0u8; entry.data_size()];
            entry.encode(&mut bytes);
            buf.append(&mut mm, &mut heap, &bytes).unwrap();
        }
        buf.spill_run(&mut mm, &mut heap, i64::decode).unwrap();
        for k in [2i64, 1, 3] {
            let entry = (k, 1f64);
            let mut bytes = vec![0u8; entry.data_size()];
            entry.encode(&mut bytes);
            buf.append(&mut mm, &mut heap, &bytes).unwrap();
        }
        let mut keys = Vec::new();
        buf.merge_sorted(&mut mm, &mut heap, i64::decode, |b| {
            keys.push(<(i64, f64)>::decode(b).0);
        })
        .unwrap();
        assert_eq!(keys, vec![1, 1, 1, 2, 2, 3, 3, 3]);
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
        for _ in 0..100_000 {
            buf.insert(&mut mm, &mut heap, &kb, &vb, add_i64).unwrap();
        }
        // One key: one 16-byte segment, one page — regardless of 100k combines.
        assert_eq!(buf.len(), 1);
        assert_eq!(heap.external_count(), 1);
        let mut total = 0i64;
        buf.for_each(&mut mm, &mut heap, |_, v| total = i64::decode(v)).unwrap();
        assert_eq!(total, 100_000);
        buf.release(&mut mm, &mut heap);
    }
}
