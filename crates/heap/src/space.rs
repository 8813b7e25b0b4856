//! Heap spaces: bump-allocated word arenas with nominal-byte accounting.
//!
//! The arena stores one `u64` word per header word, field, or array element.
//! Capacity checks use the *nominal* JVM-accounted byte size of objects, so
//! collection triggers fire at the same relative heap pressure as on a real
//! JVM, independently of the arena's internal representation.
//!
//! ## Arena recycling
//!
//! Every arena comes from, and goes back to, one bounded process-wide free
//! list. A dropped [`Space`] returns its `Vec` emptied (its pages stay
//! mapped and faulted in), filed under the space's nominal capacity;
//! [`Space::new`] takes the most recently returned arena of a space of its
//! own capacity before allocating anew. A full compaction builds the new
//! old generation in the arena the previous compaction vacated, so it
//! flips between two warm arenas as MMTk's `copyspace0`/`copyspace1` do,
//! and a new job's heap reuses the arenas of a finished heap of the same
//! configuration. What a collection then times is its tracing and copying,
//! not the kernel faulting in a fresh arena page by page. Taking only an
//! arena of the same capacity keeps a survivor space from holding an old
//! generation's resident pages while the old generation faults in new
//! ones. Object offsets do not depend on the arena: a space always fills
//! from offset 0.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Most arenas the free list holds.
const POOLED_ARENAS: usize = 32;

/// Most words of capacity the free list holds (256 MiB). Past either bound
/// the oldest arenas are freed, so arenas no later heap takes age out.
const POOLED_WORDS: usize = 1 << 25;

/// Smallest arena, in words of capacity, worth pooling.
const MIN_POOLED_WORDS: usize = 4096;

/// Emptied arenas, oldest first, each with the nominal capacity of the
/// space it served.
struct FreeList {
    arenas: Vec<(usize, Vec<u64>)>,
}

impl FreeList {
    /// The most recently returned arena of a space of `nominal_cap` bytes.
    fn take(&mut self, nominal_cap: usize) -> Option<Vec<u64>> {
        let at = self.arenas.iter().rposition(|(cap, _)| *cap == nominal_cap)?;
        Some(self.arenas.remove(at).1)
    }

    /// File an arena, emptied, freeing the oldest ones to stay within both
    /// bounds; an arena outside the pooled sizes is freed instead.
    fn give(&mut self, nominal_cap: usize, mut words: Vec<u64>) {
        words.clear();
        if !(MIN_POOLED_WORDS..=POOLED_WORDS).contains(&words.capacity()) {
            return;
        }
        while self.arenas.len() == POOLED_ARENAS || self.words() + words.capacity() > POOLED_WORDS {
            self.arenas.remove(0);
        }
        self.arenas.push((nominal_cap, words));
    }

    /// Words of capacity held.
    fn words(&self) -> usize {
        self.arenas.iter().map(|(_, a)| a.capacity()).sum()
    }
}

static ARENAS: Mutex<FreeList> = Mutex::new(FreeList { arenas: Vec::new() });

fn free_list() -> MutexGuard<'static, FreeList> {
    ARENAS.lock().unwrap_or_else(PoisonError::into_inner)
}

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
    /// An empty space, on a recycled arena of a space of the same
    /// capacity if the free list holds one.
    pub fn new(nominal_cap: usize) -> Space {
        let words = free_list().take(nominal_cap).unwrap_or_default();
        Space { words, nominal_used: 0, nominal_cap }
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

    /// Append a copy of an object's words (header included), charging
    /// `nominal_bytes`: a collector's evacuation, which writes each word
    /// once instead of zero-filling it first. Returns the word offset of
    /// the copy's header.
    #[inline]
    pub(crate) fn bump_copy(&mut self, object: &[u64], nominal_bytes: usize) -> usize {
        let start = self.words.len();
        self.words.extend_from_slice(object);
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

impl Drop for Space {
    fn drop(&mut self) {
        free_list().give(self.nominal_cap, std::mem::take(&mut self.words));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClassBuilder, FieldKind, GcAlgorithm, GcStats, Heap, HeapConfig, RootId};
    use deca_check::{Rng, SplitMix64};

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

    fn arena(capacity: usize) -> Vec<u64> {
        Vec::with_capacity(capacity)
    }

    #[test]
    fn a_space_takes_the_latest_arena_of_its_own_capacity() {
        let mut list = FreeList { arenas: Vec::new() };
        let [a, b, c] = [arena(MIN_POOLED_WORDS), arena(MIN_POOLED_WORDS), arena(MIN_POOLED_WORDS)];
        let [pa, pb, pc] = [a.as_ptr(), b.as_ptr(), c.as_ptr()];
        list.give(100, a);
        list.give(200, b);
        list.give(100, c);
        list.give(100, arena(MIN_POOLED_WORDS - 1));
        assert_eq!(list.arenas.len(), 3, "an arena below the pooling size is freed");
        assert_eq!(list.take(100).map(|w| w.as_ptr()), Some(pc));
        assert_eq!(list.take(100).map(|w| w.as_ptr()), Some(pa));
        assert!(list.take(100).is_none());
        assert!(list.take(300).is_none(), "no arena of another capacity");
        assert_eq!(list.take(200).map(|w| w.as_ptr()), Some(pb));
    }

    #[test]
    fn the_free_list_never_exceeds_its_bounds_and_frees_the_oldest() {
        let mut list = FreeList { arenas: Vec::new() };
        for cap in 0..POOLED_ARENAS + 8 {
            list.give(cap, arena(MIN_POOLED_WORDS));
            assert!(list.arenas.len() <= POOLED_ARENAS);
        }
        assert_eq!(list.arenas.len(), POOLED_ARENAS);
        assert!(list.take(7).is_none(), "the eight oldest were freed");
        assert!(list.take(8).is_some());

        // Reserved, never touched: these arenas fill the word bound
        // without faulting in a page.
        let mut list = FreeList { arenas: Vec::new() };
        for cap in 0..4 {
            list.give(cap, arena(POOLED_WORDS / 4));
        }
        assert_eq!(list.words(), POOLED_WORDS);
        list.give(4, arena(MIN_POOLED_WORDS));
        assert!(list.words() <= POOLED_WORDS);
        assert_eq!(list.arenas.len(), 4);
        assert!(list.take(0).is_none(), "the oldest was freed to make room");
    }

    /// What a collection leaves: every space's words up to its top, and
    /// the collector's counters (not its times).
    #[derive(PartialEq, Debug)]
    struct Snapshot {
        words: Vec<Vec<u64>>,
        counters: [u64; 9],
    }

    fn snapshot(heap: &Heap) -> Snapshot {
        let s: &GcStats = heap.stats();
        Snapshot {
            words: heap.spaces.iter().map(|space| space.words.clone()).collect(),
            counters: [
                s.minor_collections,
                s.full_collections,
                s.objects_traced,
                s.bytes_copied,
                s.bytes_promoted,
                s.objects_allocated,
                s.bytes_allocated,
                s.concurrent_cycles,
                s.concurrent_aborts,
            ],
        }
    }

    /// A seeded mutator program: record and array allocations, field and
    /// array writes, roots added and dropped, explicit minor and full
    /// collections besides the ones allocation triggers. A concurrent
    /// collector's marker is held, so each cycle ends in a stop-the-world
    /// abort at a point the program fixes. Returns a snapshot after every
    /// step that collected.
    fn run(heap: &mut Heap, seed: u64) -> Vec<Snapshot> {
        heap.hold_concurrent_marker(true);
        let node = heap.define_class(
            ClassBuilder::new("Node")
                .field("v", FieldKind::I64)
                .field("next", FieldKind::Ref)
                .field("w", FieldKind::I32),
        );
        let longs = heap.define_array_class("long[]", FieldKind::I64);
        let objects = heap.define_array_class("Object[]", FieldKind::Ref);
        let mut rng = SplitMix64::new(seed);
        let mut roots: Vec<RootId> = Vec::new();
        let mut snapshots = Vec::new();
        let mut collections = 0;
        let pick = |rng: &mut SplitMix64, roots: &[RootId]| roots[rng.gen_range(0..roots.len())];
        for step in 0..40_000i64 {
            match rng.gen_range(0..1000u32) {
                0..450 => {
                    let r = heap.alloc(node).expect("the live set fits the heap");
                    heap.write_i64(r, 0, step);
                    if !roots.is_empty() && rng.gen_bool(0.5) {
                        let target = heap.root_ref(pick(&mut rng, &roots));
                        heap.write_ref(r, 1, target);
                    }
                    if rng.gen_bool(0.1) {
                        roots.push(heap.add_root(r));
                    }
                }
                450..550 => {
                    let len = rng.gen_range(1..1000usize);
                    let r = heap.alloc_array(longs, len).expect("the live set fits the heap");
                    for i in 0..len {
                        heap.array_set_i64(r, i, step * 1000 + i as i64);
                    }
                    if rng.gen_bool(0.2) {
                        roots.push(heap.add_root(r));
                    }
                }
                550..600 if !roots.is_empty() => {
                    let len = rng.gen_range(1..16usize);
                    let r = heap.alloc_array(objects, len).expect("the live set fits the heap");
                    for i in 0..len {
                        let target = heap.root_ref(pick(&mut rng, &roots));
                        heap.array_set_ref(r, i, target);
                    }
                    roots.push(heap.add_root(r));
                }
                600..680 if !roots.is_empty() => {
                    let at = rng.gen_range(0..roots.len());
                    heap.remove_root(roots.swap_remove(at));
                }
                750..752 => heap.minor_gc(),
                752 => heap.full_gc(),
                _ if !roots.is_empty() => {
                    let r = heap.root_ref(pick(&mut rng, &roots));
                    if heap.class_of(r) == node {
                        heap.write_i64(r, 0, -step);
                    }
                }
                _ => {}
            }
            if roots.len() > 200 {
                let at = rng.gen_range(0..roots.len());
                heap.remove_root(roots.swap_remove(at));
            }
            if heap.stats().total_collections() != collections {
                collections = heap.stats().total_collections();
                snapshots.push(snapshot(heap));
            }
        }
        // No concurrent cycle outlives the program.
        heap.full_gc();
        snapshots.push(snapshot(heap));
        snapshots
    }

    /// A heap built on arenas that an earlier heap dirtied lays out and
    /// counts exactly what the earlier heap did, under every collector.
    #[test]
    fn a_recycled_arena_never_leaks_a_word() {
        // A size no other test uses, so no concurrent test takes these
        // spaces' arenas.
        let config = |algorithm| HeapConfig::with_total(3_100_000).with_algorithm(algorithm);
        for (seed, algorithm) in
            [(1, GcAlgorithm::ParallelScavenge), (2, GcAlgorithm::Cms), (3, GcAlgorithm::G1)]
        {
            let mut first = Heap::new(config(algorithm));
            let expected = run(&mut first, seed);
            assert!(
                expected.iter().any(|s| s.counters[0] > 0)
                    && expected.iter().any(|s| s.counters[1] > 1),
                "{algorithm:?}: the program must run minor and full collections"
            );
            drop(first);

            // The first heap's arenas, with its objects still in their
            // words, are what the second heap is built on.
            let mut second = Heap::new(config(algorithm));
            for (i, space) in second.spaces.iter().enumerate() {
                assert!(space.words.capacity() > 0, "{algorithm:?}: space {i} got a fresh arena");
            }
            let actual = run(&mut second, seed);

            assert_eq!(actual.len(), expected.len(), "{algorithm:?}: collection count");
            for (i, (a, e)) in actual.iter().zip(&expected).enumerate() {
                assert!(a == e, "{algorithm:?}: snapshot {i} differs on a recycled arena");
            }
        }
    }
}
