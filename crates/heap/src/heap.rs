//! The heap proper: allocation, field access, write barrier, external
//! allocation accounting, and the census API used by the lifetime figures.
//!
//! Arrays pack their elements into the object's words. Element access goes
//! one element at a time; the bulk paths are the JVM's copy intrinsics:
//! - `char[]` moves four UTF-16 units per word (the `String` paths), and
//!   ASCII text crosses as bytes: [`Heap::char_array_inflate`] widens a
//!   byte slice into units and [`Heap::char_array_compress`] narrows an
//!   all-ASCII array back, a word at a time;
//! - `byte[]` moves whole words between the heap and a Rust slice
//!   ([`Heap::byte_array_write`] / [`Heap::byte_array_read`], the
//!   `System.arraycopy` a serialized cache block's bytes go through);
//! - `Object[]` copies in bulk ([`Heap::array_copy_refs`], a buffer's
//!   growth), with one write-barrier decision per copy.
//!
//! ## The mutator fast path
//!
//! A JIT compiles `new` to a TLAB bump and a field access to a load; the
//! heap gives the Spark kernels the same split, so that what they pay per
//! record is the object model, not call overhead.
//!
//! - **Allocation.** [`Heap::alloc`] / [`Heap::alloc_array`] reach an
//!   inlined fast path: with no concurrent cycle in flight, an object that
//!   is not humongous and room in eden, it bumps eden, writes the header
//!   and zeroes a small payload in the caller's code, counting
//!   `objects_allocated` / `bytes_allocated` as the slow path does.
//!   Everything else — the concurrent poll point, humongous pretenuring, a
//!   minor or forced full collection, `OomError` — is the out-of-line,
//!   `#[cold]` `alloc_slow`.
//! - **Access.** Field reads and writes, the write barrier's old→young
//!   check, header and class lookups, array length and typed element
//!   access, and root and stack-root access are `#[inline]`, as are the
//!   `ObjRef` / `Header` bit operations and class-descriptor getters they
//!   use. Every bounds check and `assert!` stays.
//!
//! The hints live in the source because callers in other crates are built
//! without LTO (the benchmark's workspace uses the default release
//! profile), where a non-generic function without `#[inline]` is never
//! inlined across the crate boundary. The collectors (`gc.rs`, `mark.rs`,
//! `concurrent.rs`) are not part of this: what a collection traces, copies
//! and costs per object is the memory-management cost being measured.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

use crate::class::{ClassBuilder, ClassId, ClassRegistry, FieldKind};
use crate::concurrent::ConcurrentCycle;
use crate::object::{Header, ObjRef};
use crate::roots::{Frame, RootId, RootSet};
use crate::space::{Space, SpaceId};
use crate::stats::GcStats;
use crate::GcAlgorithm;

/// Allocation failed even after a full collection: the live set (plus
/// registered external pages) exceeds the configured old-generation
/// capacity. Mirrors the JVM's `OutOfMemoryError`; the engine reacts by
/// evicting cache blocks or spilling, as Spark does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OomError {
    /// Nominal bytes that could not be accommodated.
    pub requested: usize,
}

impl std::fmt::Display for OomError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "simulated heap out of memory (requested {} bytes)", self.requested)
    }
}

impl std::error::Error for OomError {}

/// Sizing and policy configuration of a heap.
#[derive(Clone, Debug)]
pub struct HeapConfig {
    /// Nominal byte capacity of the young generation (eden + survivors).
    pub young_bytes: usize,
    /// Nominal byte capacity of the old generation.
    pub old_bytes: usize,
    /// Fraction of the young generation given to *each* survivor space
    /// (HotSpot default `SurvivorRatio=8` ⇒ 1/10 each).
    pub survivor_fraction: f64,
    /// Number of minor collections an object survives before promotion
    /// (HotSpot `MaxTenuringThreshold` is 15; data-processing heaps promote
    /// much earlier in practice).
    pub promote_age: u8,
    /// The Table-4 collector (PS/CMS/G1; see `crate::policy`).
    pub algorithm: GcAlgorithm,
    /// Whether old-generation marking runs on a concurrent thread (see
    /// `crate::concurrent`); defaults to the collector's own preference.
    pub concurrent: bool,
}

impl HeapConfig {
    /// A heap with the given total capacity, split 1:2 young:old (the
    /// HotSpot default `NewRatio=2`), under Parallel Scavenge.
    pub fn with_total(total_bytes: usize) -> HeapConfig {
        HeapConfig {
            young_bytes: total_bytes / 3,
            old_bytes: total_bytes - total_bytes / 3,
            survivor_fraction: 0.1,
            promote_age: 3,
            algorithm: GcAlgorithm::ParallelScavenge,
            concurrent: GcAlgorithm::ParallelScavenge.concurrent_by_default(),
        }
    }

    /// A small heap suitable for unit tests and doctests.
    pub fn small() -> HeapConfig {
        HeapConfig::with_total(3 << 20)
    }

    /// Select the Table-4 collector, adopting its default concurrency
    /// (PS stop-the-world, CMS and G1 concurrent).
    pub fn with_algorithm(mut self, algorithm: GcAlgorithm) -> HeapConfig {
        self.algorithm = algorithm;
        self.concurrent = algorithm.concurrent_by_default();
        self
    }

    /// Override whether old-generation marking runs concurrently.
    pub fn with_concurrent(mut self, concurrent: bool) -> HeapConfig {
        self.concurrent = concurrent;
        self
    }

    fn eden_bytes(&self) -> usize {
        let surv = self.survivor_bytes();
        self.young_bytes.saturating_sub(2 * surv)
    }

    fn survivor_bytes(&self) -> usize {
        (self.young_bytes as f64 * self.survivor_fraction) as usize
    }
}

/// The simulated managed heap. See the crate docs for the model and the
/// rooting invariant.
pub struct Heap {
    pub(crate) registry: ClassRegistry,
    /// Indexed by [`SpaceId`].
    pub(crate) spaces: [Space; 4],
    /// Which survivor space currently holds survivors ("from" space).
    pub(crate) from_is_s0: bool,
    pub(crate) roots: RootSet,
    /// Old objects that may hold references into the young generation.
    pub(crate) remset: Vec<ObjRef>,
    /// Free blocks in the old generation (mark-sweep mode):
    /// `(word offset of hole header, total words including header)`.
    pub(crate) old_free: Vec<(usize, usize)>,
    /// Offsets of objects promoted during the running minor collection
    /// (the Cheney work queue for the old side — promotions may land in
    /// free-list holes, not just at the bump frontier).
    pub(crate) promo_queue: Vec<usize>,
    /// Bytes of each registered external allocation (Deca pages). A slot of
    /// 0 is free.
    pub(crate) externals: Vec<usize>,
    pub(crate) external_free: Vec<usize>,
    pub(crate) external_bytes: usize,
    pub(crate) stats: GcStats,
    pub(crate) config: HeapConfig,
    /// Current tenuring threshold (HotSpot-style ergonomics: lowered on
    /// survivor overflow, raised back toward the configured maximum when
    /// survivors fit comfortably).
    pub(crate) cur_promote_age: u8,
    pub(crate) epoch: Instant,
    /// In-flight concurrent marking cycle, if any (see `crate::concurrent`).
    pub(crate) conc: Option<ConcurrentCycle>,
    /// Hysteresis floor: the next concurrent cycle starts only once the
    /// old generation (plus externals) grows past this many nominal bytes.
    pub(crate) conc_floor: usize,
    /// Test hook shared into every cycle's marker thread: while set, the
    /// marker parks before tracing (see `Heap::hold_concurrent_marker`).
    pub(crate) conc_hold: Arc<AtomicBool>,
}

/// Class-id sentinel marking a free block (hole) in a swept old space.
/// Header word 1 of a hole holds its total size in words (incl. header).
pub(crate) const HOLE_CLASS: u32 = u32::MAX;

impl Heap {
    pub fn new(config: HeapConfig) -> Heap {
        let eden = Space::new(config.eden_bytes());
        let s0 = Space::new(config.survivor_bytes());
        let s1 = Space::new(config.survivor_bytes());
        let old = Space::new(config.old_bytes);
        Heap {
            registry: ClassRegistry::new(),
            spaces: [eden, s0, s1, old],
            from_is_s0: true,
            roots: RootSet::new(),
            remset: Vec::new(),
            old_free: Vec::new(),
            promo_queue: Vec::new(),
            externals: Vec::new(),
            external_free: Vec::new(),
            external_bytes: 0,
            stats: GcStats::default(),
            cur_promote_age: config.promote_age,
            config,
            epoch: Instant::now(),
            conc: None,
            conc_floor: 0,
            conc_hold: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The tenuring threshold currently in effect (see `cur_promote_age`).
    pub fn tenuring_threshold(&self) -> u8 {
        self.cur_promote_age
    }

    // ------------------------------------------------------------------
    // registry
    // ------------------------------------------------------------------

    pub fn registry(&self) -> &ClassRegistry {
        &self.registry
    }

    pub fn registry_mut(&mut self) -> &mut ClassRegistry {
        &mut self.registry
    }

    /// Convenience: define a record class directly on the heap.
    pub fn define_class(&mut self, builder: ClassBuilder) -> ClassId {
        self.registry.define(builder)
    }

    /// Convenience: define an array class directly on the heap.
    pub fn define_array_class(&mut self, name: &str, elem: FieldKind) -> ClassId {
        self.registry.define_array(name, elem)
    }

    // ------------------------------------------------------------------
    // allocation
    // ------------------------------------------------------------------

    /// Allocate a record instance with all fields zero/null.
    #[inline]
    pub fn alloc(&mut self, class: ClassId) -> Result<ObjRef, OomError> {
        let desc = self.registry.get(class);
        assert!(!desc.is_array(), "use alloc_array for array class {}", desc.name());
        let slots = desc.slot_count();
        let nominal = desc.nominal_size(0);
        self.alloc_raw(class, slots, nominal, 0)
    }

    /// Allocate an array instance with `len` zeroed elements.
    #[inline]
    pub fn alloc_array(&mut self, class: ClassId, len: usize) -> Result<ObjRef, OomError> {
        let desc = self.registry.get(class);
        let elem =
            desc.array_elem().unwrap_or_else(|| panic!("{} is not an array class", desc.name()));
        let slots = Self::array_slot_words(elem, len);
        let nominal = desc.nominal_size(len);
        self.alloc_raw(class, slots, nominal, len as u64)
    }

    #[inline]
    pub(crate) fn array_slot_words(elem: FieldKind, len: usize) -> usize {
        let bytes = len * elem.nominal_bytes();
        bytes.div_ceil(8)
    }

    /// The allocation fast path: with no concurrent cycle to poll, an
    /// object that is not humongous and room for it in eden, bump eden
    /// here, in the caller's code. Anything else — the poll point,
    /// pretenuring, a collection, an `OomError` — is [`Heap::alloc_slow`].
    #[inline]
    fn alloc_raw(
        &mut self,
        class: ClassId,
        slots: usize,
        nominal: usize,
        word1: u64,
    ) -> Result<ObjRef, OomError> {
        let eden = &mut self.spaces[SpaceId::Eden as usize];
        if self.conc.is_none() && nominal * 2 <= eden.nominal_cap() && eden.fits(nominal) {
            self.stats.objects_allocated += 1;
            self.stats.bytes_allocated += nominal as u64;
            let header = Header::new(class.index() as u32).0;
            let off = eden.bump_object([header, word1], slots, nominal);
            return Ok(ObjRef::new(SpaceId::Eden, off));
        }
        self.alloc_slow(class, slots, nominal, word1)
    }

    #[cold]
    #[inline(never)]
    fn alloc_slow(
        &mut self,
        class: ClassId,
        slots: usize,
        nominal: usize,
        word1: u64,
    ) -> Result<ObjRef, OomError> {
        self.stats.objects_allocated += 1;
        self.stats.bytes_allocated += nominal as u64;
        // Retire a finished concurrent marking cycle before anything else:
        // the allocation slow path is the highest-frequency poll point.
        if self.conc.is_some() {
            self.poll_gc();
        }
        // Humongous objects are pretenured straight into the old generation,
        // as HotSpot does for objects that would not fit in eden.
        let eden_cap = self.spaces[SpaceId::Eden as usize].nominal_cap();
        if nominal * 2 > eden_cap {
            if !self.old_fits(nominal) {
                self.full_gc();
                if !self.old_fits(nominal) {
                    return Err(OomError { requested: nominal });
                }
            }
            let off = self.alloc_old_words(slots, nominal);
            return Ok(self.init_object(SpaceId::Old, off, class, word1));
        }

        if !self.spaces[SpaceId::Eden as usize].fits(nominal) {
            self.minor_gc();
            if !self.old_within_budget() {
                // Promotion overflowed the old generation: a full collection
                // is forced (the expensive case the paper measures).
                self.full_gc();
                if !self.old_within_budget() {
                    return Err(OomError { requested: nominal });
                }
            }
        }
        let off = self.spaces[SpaceId::Eden as usize].bump(slots, nominal);
        Ok(self.init_object(SpaceId::Eden, off, class, word1))
    }

    fn init_object(&mut self, space: SpaceId, off: usize, class: ClassId, word1: u64) -> ObjRef {
        let words = &mut self.spaces[space as usize].words;
        words[off] = Header::new(class.index() as u32).0;
        words[off + 1] = word1;
        ObjRef::new(space, off)
    }

    /// Allocate `slots` payload words in the old generation: first-fit
    /// from the free list (mark-sweep mode), else bump. Overcommit beyond
    /// the nominal capacity is permitted (resolved by the caller's
    /// collection/OOM logic).
    pub(crate) fn alloc_old_words(&mut self, slots: usize, nominal: usize) -> usize {
        let need = slots + 2;
        let off = match self.take_old_hole(need, nominal) {
            Some(off) => {
                // Zero the object's words (fresh-field semantics).
                self.spaces[SpaceId::Old as usize].words[off..off + need].fill(0);
                off
            }
            None => self.spaces[SpaceId::Old as usize].bump(slots, nominal),
        };
        self.log_old_birth(off);
        off
    }

    /// Copy the `total` words of the young object at `(src_space, off)`
    /// into the old generation, placed as [`Heap::alloc_old_words`] places
    /// it but without zeroing the words first: a promotion or evacuation.
    /// Returns the copy's offset.
    pub(crate) fn copy_to_old(
        &mut self,
        src_space: SpaceId,
        off: usize,
        total: usize,
        nominal: usize,
    ) -> usize {
        let hole = self.take_old_hole(total, nominal);
        let [src, old] = self
            .spaces
            .get_disjoint_mut([src_space as usize, SpaceId::Old as usize])
            .expect("a young source space is not the old generation");
        let object = &src.words[off..off + total];
        let new_off = match hole {
            Some(at) => {
                old.words[at..at + total].copy_from_slice(object);
                at
            }
            None => old.bump_copy(object, nominal),
        };
        self.log_old_birth(new_off);
        new_off
    }

    /// Claim the first free-list hole that fits `need` words (header
    /// included) exactly or with room for a remainder hole, charging
    /// `nominal` bytes. The claimed words are left as they were.
    fn take_old_hole(&mut self, need: usize, nominal: usize) -> Option<usize> {
        let i = self.old_free.iter().position(|&(_, total)| total == need || total >= need + 2)?;
        let (off, total) = self.old_free[i];
        let old = &mut self.spaces[SpaceId::Old as usize];
        let rem = total - need;
        if rem >= 2 {
            let hole = off + need;
            old.words[hole] = Header::new(HOLE_CLASS).0;
            old.words[hole + 1] = rem as u64;
            self.old_free[i] = (hole, rem);
        } else {
            self.old_free.swap_remove(i);
        }
        old.add_nominal(nominal);
        Some(off)
    }

    /// Allocate-black: old objects born during a concurrent marking cycle
    /// go on the dirty log so the remark keeps them alive.
    fn log_old_birth(&mut self, off: usize) {
        if let Some(cycle) = self.conc.as_mut() {
            cycle.dirty.push(off);
        }
    }

    pub(crate) fn old_fits(&self, nominal: usize) -> bool {
        let old = &self.spaces[SpaceId::Old as usize];
        old.nominal_used() + self.external_bytes + nominal <= old.nominal_cap()
    }

    pub(crate) fn old_within_budget(&self) -> bool {
        self.old_fits(0)
    }

    /// Old-generation occupancy fraction including external pages.
    pub fn old_occupancy(&self) -> f64 {
        let old = &self.spaces[SpaceId::Old as usize];
        if old.nominal_cap() == 0 {
            return 1.0;
        }
        (old.nominal_used() + self.external_bytes) as f64 / old.nominal_cap() as f64
    }

    // ------------------------------------------------------------------
    // object access
    // ------------------------------------------------------------------

    #[inline]
    pub fn class_of(&self, r: ObjRef) -> ClassId {
        let h = self.header(r);
        ClassId(h.class_id())
    }

    /// The word offset of `r` in eden, or `None` if it lives elsewhere
    /// (born old, or moved by a collection). Eden bump-allocates, so these
    /// offsets order its objects by allocation: what a test of the order a
    /// record's `store` makes its objects in reads.
    pub fn eden_offset(&self, r: ObjRef) -> Option<usize> {
        (r.space() == SpaceId::Eden).then(|| r.offset())
    }

    #[inline]
    pub(crate) fn header(&self, r: ObjRef) -> Header {
        Header(self.spaces[r.space() as usize].words[r.offset()])
    }

    #[inline]
    fn slot(&self, r: ObjRef, i: usize) -> u64 {
        self.spaces[r.space() as usize].words[r.offset() + 2 + i]
    }

    #[inline]
    fn slot_set(&mut self, r: ObjRef, i: usize, v: u64) {
        self.spaces[r.space() as usize].words[r.offset() + 2 + i] = v;
    }

    /// Read a field as its raw 64-bit representation.
    #[inline]
    pub fn read_word(&self, r: ObjRef, field: usize) -> u64 {
        debug_assert!(field < self.registry.get(self.class_of(r)).slot_count());
        self.slot(r, field)
    }

    /// Write a non-reference field. Panics (debug) if the field is a ref —
    /// references must go through [`Heap::write_ref`] for the barrier.
    #[inline]
    pub fn write_word(&mut self, r: ObjRef, field: usize, v: u64) {
        debug_assert!(!self.registry.get(self.class_of(r)).slot_is_ref(field));
        self.slot_set(r, field, v);
    }

    #[inline]
    pub fn read_f64(&self, r: ObjRef, field: usize) -> f64 {
        f64::from_bits(self.read_word(r, field))
    }

    #[inline]
    pub fn write_f64(&mut self, r: ObjRef, field: usize, v: f64) {
        self.write_word(r, field, v.to_bits());
    }

    #[inline]
    pub fn read_i64(&self, r: ObjRef, field: usize) -> i64 {
        self.read_word(r, field) as i64
    }

    #[inline]
    pub fn write_i64(&mut self, r: ObjRef, field: usize, v: i64) {
        self.write_word(r, field, v as u64);
    }

    #[inline]
    pub fn read_ref(&self, r: ObjRef, field: usize) -> ObjRef {
        debug_assert!(self.registry.get(self.class_of(r)).slot_is_ref(field));
        ObjRef::from_raw(self.slot(r, field))
    }

    /// Write a reference field, applying the generational write barrier.
    #[inline]
    pub fn write_ref(&mut self, r: ObjRef, field: usize, v: ObjRef) {
        debug_assert!(self.registry.get(self.class_of(r)).slot_is_ref(field));
        self.slot_set(r, field, v.raw());
        self.barrier(r, v);
    }

    /// The barrier's fast check, inlined into every reference store: only
    /// an old→young edge reaches [`Heap::remember`].
    #[inline]
    fn barrier(&mut self, holder: ObjRef, value: ObjRef) {
        if holder.space() == SpaceId::Old && !value.is_null() && value.space() != SpaceId::Old {
            self.remember(holder);
        }
    }

    fn remember(&mut self, holder: ObjRef) {
        let h = self.header(holder);
        if !h.is_remembered() {
            self.spaces[SpaceId::Old as usize].words[holder.offset()] = h.with_remembered(true).0;
            self.remset.push(holder);
        }
    }

    // ------------------------------------------------------------------
    // arrays
    // ------------------------------------------------------------------

    #[inline]
    pub fn array_len(&self, r: ObjRef) -> usize {
        debug_assert!(self.registry.get(self.class_of(r)).is_array());
        self.spaces[r.space() as usize].words[r.offset() + 1] as usize
    }

    #[inline]
    fn array_elem_kind(&self, r: ObjRef) -> FieldKind {
        self.registry.get(self.class_of(r)).array_elem().expect("not an array")
    }

    #[inline]
    fn elem_loc(elem: FieldKind, i: usize) -> (usize, u32, u64) {
        let eb = elem.nominal_bytes();
        let byte = i * eb;
        let word = byte / 8;
        let shift = ((byte % 8) * 8) as u32;
        let mask = if eb == 8 { u64::MAX } else { (1u64 << (eb * 8)) - 1 };
        (word, shift, mask)
    }

    /// Read array element `i` as raw bits (zero-extended).
    #[cfg(test)]
    pub fn array_get(&self, r: ObjRef, i: usize) -> u64 {
        let len = self.array_len(r);
        assert!(i < len, "array index {i} out of bounds (len {len})");
        let elem = self.array_elem_kind(r);
        let (word, shift, mask) = Self::elem_loc(elem, i);
        (self.spaces[r.space() as usize].words[r.offset() + 2 + word] >> shift) & mask
    }

    /// Write array element `i` from raw bits. For reference arrays use
    /// [`Heap::array_set_ref`].
    #[inline]
    pub fn array_set(&mut self, r: ObjRef, i: usize, v: u64) {
        let len = self.array_len(r);
        assert!(i < len, "array index {i} out of bounds (len {len})");
        let elem = self.array_elem_kind(r);
        debug_assert!(!elem.is_ref(), "use array_set_ref for reference arrays");
        let (word, shift, mask) = Self::elem_loc(elem, i);
        let w = &mut self.spaces[r.space() as usize].words[r.offset() + 2 + word];
        *w = (*w & !(mask << shift)) | ((v & mask) << shift);
    }

    /// [`Heap::elem_loc`] of element `i`, with the word offset made
    /// absolute, for an array whose element kind the typed accessor
    /// states, as `daload`/`iaload`/`aaload` carry theirs: the bounds check
    /// stays, and only debug builds look the class up to confirm the kind.
    #[inline]
    fn typed_elem(&self, r: ObjRef, i: usize, kind: FieldKind) -> (usize, u32, u64) {
        let len = self.array_len(r);
        assert!(i < len, "array index {i} out of bounds (len {len})");
        debug_assert_eq!(self.array_elem_kind(r), kind, "typed access to a wrong-kind array");
        let (word, shift, mask) = Self::elem_loc(kind, i);
        (r.offset() + 2 + word, shift, mask)
    }

    #[inline]
    fn typed_word(&self, r: ObjRef, i: usize, kind: FieldKind) -> u64 {
        let (word, shift, mask) = self.typed_elem(r, i, kind);
        (self.spaces[r.space() as usize].words[word] >> shift) & mask
    }

    #[inline]
    fn typed_set(&mut self, r: ObjRef, i: usize, kind: FieldKind, v: u64) {
        let (word, shift, mask) = self.typed_elem(r, i, kind);
        let w = &mut self.spaces[r.space() as usize].words[word];
        *w = (*w & !(mask << shift)) | ((v & mask) << shift);
    }

    #[inline]
    pub fn array_get_f64(&self, r: ObjRef, i: usize) -> f64 {
        f64::from_bits(self.typed_word(r, i, FieldKind::F64))
    }

    #[inline]
    pub fn array_set_f64(&mut self, r: ObjRef, i: usize, v: f64) {
        self.typed_set(r, i, FieldKind::F64, v.to_bits());
    }

    #[inline]
    pub fn array_get_i64(&self, r: ObjRef, i: usize) -> i64 {
        self.typed_word(r, i, FieldKind::I64) as i64
    }

    #[inline]
    pub fn array_set_i64(&mut self, r: ObjRef, i: usize, v: i64) {
        self.typed_set(r, i, FieldKind::I64, v as u64);
    }

    #[inline]
    pub fn array_get_i32(&self, r: ObjRef, i: usize) -> i32 {
        self.typed_word(r, i, FieldKind::I32) as u32 as i32
    }

    #[inline]
    pub fn array_set_i32(&mut self, r: ObjRef, i: usize, v: i32) {
        self.typed_set(r, i, FieldKind::I32, u64::from(v as u32));
    }

    #[inline]
    pub fn array_get_ref(&self, r: ObjRef, i: usize) -> ObjRef {
        ObjRef::from_raw(self.typed_word(r, i, FieldKind::Ref))
    }

    #[inline]
    pub fn array_set_ref(&mut self, r: ObjRef, i: usize, v: ObjRef) {
        self.typed_set(r, i, FieldKind::Ref, v.raw());
        self.barrier(r, v);
    }

    /// Fill a `char[]` with UTF-16 code units from element 0, a word of
    /// four units at a time — the `System.arraycopy` / `String` intrinsic
    /// analogue of a loop of [`Heap::array_set`] calls.
    pub fn char_array_write(&mut self, r: ObjRef, units: impl IntoIterator<Item = u16>) {
        let len = self.array_len(r);
        debug_assert_eq!(self.array_elem_kind(r), FieldKind::Char);
        let base = r.offset() + 2;
        let words = &mut self.spaces[r.space() as usize].words[base..base + len.div_ceil(4)];
        let (mut n, mut word) = (0, 0u64);
        for u in units {
            assert!(n < len, "char array write out of bounds (len {len})");
            word |= u64::from(u) << (n % 4 * 16);
            n += 1;
            if n % 4 == 0 {
                words[n / 4 - 1] = word;
                word = 0;
            }
        }
        if n % 4 != 0 {
            let kept = !((1u64 << (n % 4 * 16)) - 1);
            words[n / 4] = (words[n / 4] & kept) | word;
        }
    }

    /// The UTF-16 code units of a `char[]`, in order.
    pub fn char_array_units(&self, r: ObjRef) -> impl Iterator<Item = u16> + '_ {
        let len = self.array_len(r);
        debug_assert_eq!(self.array_elem_kind(r), FieldKind::Char);
        let base = r.offset() + 2;
        let words = &self.spaces[r.space() as usize].words[base..base + len.div_ceil(4)];
        (0..len).map(move |i| (words[i / 4] >> (i % 4 * 16)) as u16)
    }

    /// Fill a `char[]` from element 0 with `bytes`, each widened to one
    /// UTF-16 unit, four units a word: the JDK's Latin-1 inflate (the UTF-8
    /// decoder's ASCII loop). The units are the words
    /// [`Heap::char_array_write`] writes for the same text, and elements
    /// past `bytes.len()` keep their values.
    pub fn char_array_inflate(&mut self, r: ObjRef, bytes: &[u8]) {
        let len = self.array_len(r);
        assert!(bytes.len() <= len, "char array write out of bounds (len {len})");
        debug_assert_eq!(self.array_elem_kind(r), FieldKind::Char);
        let base = r.offset() + 2;
        let words =
            &mut self.spaces[r.space() as usize].words[base..base + bytes.len().div_ceil(4)];
        let mut quads = bytes.chunks_exact(4);
        for (w, q) in words.iter_mut().zip(&mut quads) {
            *w = widen([q[0], q[1], q[2], q[3]]);
        }
        let tail = quads.remainder();
        if let Some(w) = words.last_mut().filter(|_| !tail.is_empty()) {
            let mut q = [0; 4];
            q[..tail.len()].copy_from_slice(tail);
            let kept = !((1u64 << (tail.len() * 16)) - 1);
            *w = (*w & kept) | widen(q);
        }
    }

    /// Append a `char[]`'s units to `out` narrowed to one byte each, four
    /// units a word, if every unit is ASCII: Kryo's `writeAscii` check (the
    /// words ORed together against `0xff80` in each lane) and copy. Returns
    /// `false`, with `out` untouched, if any unit is `0x80` or above.
    pub fn char_array_compress(&self, r: ObjRef, out: &mut Vec<u8>) -> bool {
        const NON_ASCII: u64 = 0xff80_ff80_ff80_ff80;
        let len = self.array_len(r);
        debug_assert_eq!(self.array_elem_kind(r), FieldKind::Char);
        let base = r.offset() + 2;
        let (full, tail) = (len / 4, len % 4);
        let words = &self.spaces[r.space() as usize].words[base..base + len.div_ceil(4)];
        // The lanes of the last word past `len` are not elements.
        let last = words.get(full).map_or(0, |w| w & ((1u64 << (tail * 16)) - 1));
        if words[..full].iter().fold(last, |acc, w| acc | w) & NON_ASCII != 0 {
            return false;
        }
        out.reserve(len);
        for &w in &words[..full] {
            out.extend_from_slice(&narrow(w));
        }
        out.extend_from_slice(&narrow(last)[..tail]);
        true
    }

    /// Copy references `src[src_pos..src_pos + n]` to
    /// `dst[dst_pos..dst_pos + n]` (`Object[]`s, which may be one array):
    /// `System.arraycopy`, with one write-barrier decision for the whole
    /// copy — `dst` is remembered once if it is old and any copied
    /// reference is young, as the per-element barrier would remember it.
    pub fn array_copy_refs(
        &mut self,
        src: ObjRef,
        src_pos: usize,
        dst: ObjRef,
        dst_pos: usize,
        n: usize,
    ) {
        let (src_len, dst_len) = (self.array_len(src), self.array_len(dst));
        assert!(src_pos + n <= src_len, "array copy reads past the source (len {src_len})");
        assert!(dst_pos + n <= dst_len, "array copy writes past the destination (len {dst_len})");
        debug_assert_eq!(self.array_elem_kind(src), FieldKind::Ref);
        debug_assert_eq!(self.array_elem_kind(dst), FieldKind::Ref);
        let (s, d) = (src.space() as usize, dst.space() as usize);
        let (from, to) = (src.offset() + 2 + src_pos, dst.offset() + 2 + dst_pos);
        if s == d {
            self.spaces[d].words.copy_within(from..from + n, to);
        } else {
            let (lo, hi) = self.spaces.split_at_mut(s.max(d));
            let (src_space, dst_space) =
                if s < d { (&lo[s], &mut hi[0]) } else { (&hi[0], &mut lo[d]) };
            dst_space.words[to..to + n].copy_from_slice(&src_space.words[from..from + n]);
        }
        if dst.space() == SpaceId::Old {
            let copied = &self.spaces[d].words[to..to + n];
            let young = |&w: &u64| w != 0 && ObjRef::from_raw(w).space() != SpaceId::Old;
            if copied.iter().any(young) {
                self.remember(dst);
            }
        }
    }

    /// Where elements `offset..offset + n` (`n > 0`) of a byte array live:
    /// the absolute range of words holding them, the span's byte position
    /// inside the first word, and the length of its unaligned head (the
    /// bytes before the next word boundary, at most `n`). Byte `i` sits at
    /// shift `(i % 8) * 8` of word `i / 8` — little-endian byte `i % 8` of
    /// that word, whatever the host's byte order.
    fn byte_span(r: ObjRef, offset: usize, n: usize) -> (std::ops::Range<usize>, usize, usize) {
        let first = r.offset() + 2 + offset / 8;
        let lead = offset % 8;
        let head = n.min((8 - lead) % 8);
        (first..first + (lead + n).div_ceil(8), lead, head)
    }

    /// Bulk-copy bytes into a byte (`I8`) array starting at element
    /// `offset` — the `System.arraycopy` analogue of a loop of
    /// [`Heap::array_set`] calls: an unaligned head, whole words, then a
    /// tail, so elements outside the span keep their values.
    pub fn byte_array_write(&mut self, r: ObjRef, offset: usize, data: &[u8]) {
        let len = self.array_len(r);
        assert!(offset + data.len() <= len, "byte array write out of bounds");
        debug_assert_eq!(self.array_elem_kind(r), FieldKind::I8);
        self.write_span(r, offset, data);
    }

    /// Bulk-copy little-endian elements, back to back, into a primitive
    /// array from element 0: `System.arraycopy` into a `double[]` or an
    /// `int[]` from a byte view of its elements. The words are the ones
    /// per-element sets write, and elements past `data` keep their values.
    pub fn array_write_le(&mut self, r: ObjRef, data: &[u8]) {
        assert!(data.len() <= self.primitive_array_bytes(r), "array write out of bounds");
        self.write_span(r, 0, data);
    }

    /// Append a primitive array's elements to `out`, little-endian, back
    /// to back: the bytes [`Heap::array_write_le`] takes.
    pub fn array_read_le(&self, r: ObjRef, out: &mut Vec<u8>) {
        let at = out.len();
        out.resize(at + self.primitive_array_bytes(r), 0);
        self.read_span(r, 0, &mut out[at..]);
    }

    /// The bytes a primitive array's elements take.
    fn primitive_array_bytes(&self, r: ObjRef) -> usize {
        let elem = self.array_elem_kind(r);
        assert!(!elem.is_ref(), "not a primitive array");
        self.array_len(r) * elem.nominal_bytes()
    }

    /// Copy `data` into an array's payload from byte `offset`: an
    /// unaligned head, whole words, then a tail.
    fn write_span(&mut self, r: ObjRef, offset: usize, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        let (span, lead, head) = Self::byte_span(r, offset, data.len());
        let words = &mut self.spaces[r.space() as usize].words[span];
        let (head_bytes, body) = data.split_at(head);
        let (head_word, words) = words.split_at_mut(usize::from(head > 0));
        if let Some(w) = head_word.first_mut() {
            let mut le = w.to_le_bytes();
            le[lead..lead + head].copy_from_slice(head_bytes);
            *w = u64::from_le_bytes(le);
        }
        let mut chunks = body.chunks_exact(8);
        for (w, c) in words.iter_mut().zip(&mut chunks) {
            *w = u64::from_le_bytes(c.try_into().expect("8-byte word"));
        }
        let tail = chunks.remainder();
        if let Some(w) = words.last_mut().filter(|_| !tail.is_empty()) {
            let mut le = w.to_le_bytes();
            le[..tail.len()].copy_from_slice(tail);
            *w = u64::from_le_bytes(le);
        }
    }

    /// Bulk-copy bytes out of a byte (`I8`) array starting at element
    /// `offset`, in the same three steps as [`Heap::byte_array_write`].
    pub fn byte_array_read(&self, r: ObjRef, offset: usize, out: &mut [u8]) {
        let len = self.array_len(r);
        assert!(offset + out.len() <= len, "byte array read out of bounds");
        debug_assert_eq!(self.array_elem_kind(r), FieldKind::I8);
        self.read_span(r, offset, out);
    }

    /// Copy an array's payload from byte `offset` into `out`, in the same
    /// three steps as [`Heap::write_span`].
    fn read_span(&self, r: ObjRef, offset: usize, out: &mut [u8]) {
        if out.is_empty() {
            return;
        }
        let (span, lead, head) = Self::byte_span(r, offset, out.len());
        let words = &self.spaces[r.space() as usize].words[span];
        let (head_out, body) = out.split_at_mut(head);
        let (head_word, words) = words.split_at(usize::from(head > 0));
        if let Some(w) = head_word.first() {
            head_out.copy_from_slice(&w.to_le_bytes()[lead..lead + head]);
        }
        let mut chunks = body.chunks_exact_mut(8);
        for (c, w) in (&mut chunks).zip(words) {
            c.copy_from_slice(&w.to_le_bytes());
        }
        let tail = chunks.into_remainder();
        if let Some(w) = words.last().filter(|_| !tail.is_empty()) {
            let n = tail.len();
            tail.copy_from_slice(&w.to_le_bytes()[..n]);
        }
    }

    // ------------------------------------------------------------------
    // roots
    // ------------------------------------------------------------------

    /// Register a long-lived root. The referenced object (and everything
    /// reachable from it) survives collections until [`Heap::remove_root`].
    pub fn add_root(&mut self, r: ObjRef) -> RootId {
        self.roots.add(r)
    }

    /// Drop a root. Returns the current (possibly moved) reference.
    pub fn remove_root(&mut self, id: RootId) -> ObjRef {
        self.roots.remove(id)
    }

    /// Current value of a root (collections rewrite it when objects move).
    #[inline]
    pub fn root_ref(&self, id: RootId) -> ObjRef {
        self.roots.get(id)
    }

    #[inline]
    pub fn set_root(&mut self, id: RootId, r: ObjRef) {
        self.roots.set(id, r)
    }

    /// Push a short-lived stack root: a UDF temporary held across an
    /// allocation. Returns its stack index, valid until the frame it was
    /// pushed in is popped, so push only inside [`Heap::scope`].
    #[inline]
    pub fn push_stack(&mut self, r: ObjRef) -> usize {
        self.roots.push_stack(r)
    }

    #[inline]
    pub fn stack_ref(&self, i: usize) -> ObjRef {
        self.roots.stack_get(i)
    }

    /// Open a shadow-stack frame: [`Heap::pop`] drops every stack root
    /// pushed after it.
    #[inline]
    pub fn frame(&self) -> Frame {
        self.roots.frame()
    }

    #[inline]
    pub fn pop(&mut self, frame: Frame) {
        self.roots.pop(frame)
    }

    /// Run `body` in a frame of its own: every stack root it pushes is
    /// popped when it returns, whatever it returns, so a store that `?`s
    /// out of a failed allocation leaves nothing rooted.
    #[inline]
    pub fn scope<R>(&mut self, body: impl FnOnce(&mut Heap) -> R) -> R {
        let frame = self.frame();
        let out = body(self);
        self.pop(frame);
        out
    }

    // ------------------------------------------------------------------
    // external allocations (Deca pages)
    // ------------------------------------------------------------------

    /// Register an external allocation (a Deca page): it consumes
    /// old-generation budget but is traced as a single leaf object.
    /// Returns an id for [`Heap::unregister_external`]. Fails if the old
    /// generation cannot accommodate it even after a full collection.
    pub fn register_external(&mut self, bytes: usize) -> Result<usize, OomError> {
        if self.conc.is_some() {
            self.poll_gc();
        }
        if !self.old_fits(bytes) {
            self.full_gc();
            if !self.old_fits(bytes) {
                return Err(OomError { requested: bytes });
            }
        }
        self.external_bytes += bytes;
        match self.external_free.pop() {
            Some(i) => {
                self.externals[i] = bytes;
                Ok(i)
            }
            None => {
                self.externals.push(bytes);
                Ok(self.externals.len() - 1)
            }
        }
    }

    /// Release an external allocation, immediately returning its budget —
    /// the whole point of lifetime-based management: no tracing needed.
    pub fn unregister_external(&mut self, id: usize) {
        let bytes = std::mem::take(&mut self.externals[id]);
        self.external_bytes -= bytes;
        self.external_free.push(id);
    }

    pub fn external_bytes(&self) -> usize {
        self.external_bytes
    }

    pub fn external_count(&self) -> usize {
        self.externals.iter().filter(|&&b| b != 0).count()
    }

    // ------------------------------------------------------------------
    // introspection
    // ------------------------------------------------------------------

    pub fn stats(&self) -> &GcStats {
        &self.stats
    }

    pub fn config(&self) -> &HeapConfig {
        &self.config
    }

    /// Nominal bytes currently allocated on-heap (young + old, excluding
    /// externals).
    pub fn used_bytes(&self) -> usize {
        self.spaces.iter().map(|s| s.nominal_used()).sum()
    }

    pub fn old_used_bytes(&self) -> usize {
        self.spaces[SpaceId::Old as usize].nominal_used()
    }

    /// Nominal byte capacity of the old generation.
    pub fn old_capacity_bytes(&self) -> usize {
        self.spaces[SpaceId::Old as usize].nominal_cap()
    }

    /// Number of free blocks in the old generation's free list (non-zero
    /// only under the mark-sweep full collector).
    pub fn free_block_count(&self) -> usize {
        self.old_free.len()
    }

    /// Number of live root slots plus stack roots.
    pub fn root_count(&self) -> usize {
        self.roots.live_count()
    }

    /// Time since the heap was created (the x-axis of lifetime figures).
    pub fn elapsed(&self) -> std::time::Duration {
        self.epoch.elapsed()
    }

    /// Count objects of each class currently present on the heap
    /// (allocated and not yet collected — what a heap profiler reports).
    /// Returns a vector indexed by class id.
    pub fn census(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.registry.len()];
        for space in &self.spaces {
            self.walk_space(space, |class, _| counts[class.index()] += 1);
        }
        counts
    }

    /// Count of objects of one class currently present on the heap.
    pub fn live_count(&self, class: ClassId) -> usize {
        let mut n = 0;
        for space in &self.spaces {
            self.walk_space(space, |c, _| {
                if c == class {
                    n += 1;
                }
            });
        }
        n
    }

    /// Total number of objects currently present on the heap.
    pub fn object_count(&self) -> usize {
        let mut n = 0;
        for space in &self.spaces {
            self.walk_space(space, |_, _| n += 1);
        }
        n
    }

    fn walk_space(&self, space: &Space, mut f: impl FnMut(ClassId, usize)) {
        let mut off = 0;
        while off < space.top() {
            let h = Header(space.words[off]);
            debug_assert!(!h.is_forwarded(), "walk during collection");
            if h.class_id() == HOLE_CLASS {
                off += space.words[off + 1] as usize;
                continue;
            }
            let class = ClassId(h.class_id());
            let desc = self.registry.get(class);
            let slots = match desc.array_elem() {
                Some(elem) => Self::array_slot_words(elem, space.words[off + 1] as usize),
                None => desc.slot_count(),
            };
            f(class, off);
            off += 2 + slots;
        }
    }
}

/// Four bytes widened into the four 16-bit lanes of a `char[]` word, byte
/// `i` in lane `i`.
#[inline]
fn widen(bytes: [u8; 4]) -> u64 {
    let x = u64::from(u32::from_le_bytes(bytes));
    let x = (x | (x << 16)) & 0x0000_ffff_0000_ffff;
    (x | (x << 8)) & 0x00ff_00ff_00ff_00ff
}

/// The inverse of [`widen`] on a word whose lanes are all below `0x100`.
#[inline]
fn narrow(word: u64) -> [u8; 4] {
    let x = (word | (word >> 8)) & 0x0000_ffff_0000_ffff;
    ((x | (x >> 16)) as u32).to_le_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn heap() -> Heap {
        Heap::new(HeapConfig::small())
    }

    #[test]
    fn alloc_and_field_roundtrip() {
        let mut h = heap();
        let c = h.define_class(
            ClassBuilder::new("P")
                .field("x", FieldKind::F64)
                .field("n", FieldKind::I64)
                .field("next", FieldKind::Ref),
        );
        let a = h.alloc(c).unwrap();
        let b = h.alloc(c).unwrap();
        h.write_f64(a, 0, 3.25);
        h.write_i64(a, 1, -7);
        h.write_ref(a, 2, b);
        assert_eq!(h.read_f64(a, 0), 3.25);
        assert_eq!(h.read_i64(a, 1), -7);
        assert_eq!(h.read_ref(a, 2), b);
        assert!(h.read_ref(b, 2).is_null(), "fields start null");
        assert_eq!(h.class_of(a), c);
    }

    #[test]
    fn packed_array_elements() {
        let mut h = heap();
        let ba = h.define_array_class("byte[]", FieldKind::I8);
        let ia = h.define_array_class("int[]", FieldKind::I32);
        let da = h.define_array_class("double[]", FieldKind::F64);

        let b = h.alloc_array(ba, 11).unwrap();
        for i in 0..11 {
            h.array_set(b, i, (i as u64 * 17) & 0xff);
        }
        for i in 0..11 {
            assert_eq!(h.array_get(b, i), (i as u64 * 17) & 0xff);
        }

        let x = h.alloc_array(ia, 5).unwrap();
        h.array_set_i32(x, 0, -1);
        h.array_set_i32(x, 1, 123_456);
        h.array_set_i32(x, 4, i32::MIN);
        assert_eq!(h.array_get_i32(x, 0), -1);
        assert_eq!(h.array_get_i32(x, 1), 123_456);
        assert_eq!(h.array_get_i32(x, 4), i32::MIN);
        assert_eq!(h.array_get_i32(x, 2), 0);

        let d = h.alloc_array(da, 3).unwrap();
        h.array_set_f64(d, 2, -0.5);
        assert_eq!(h.array_get_f64(d, 2), -0.5);
        assert_eq!(h.array_len(d), 3);
    }

    #[test]
    fn byte_array_bulk_io() {
        let mut h = heap();
        let ba = h.define_array_class("byte[]", FieldKind::I8);
        let b = h.alloc_array(ba, 64).unwrap();
        let data: Vec<u8> = (0..40).map(|i| (i * 3 + 1) as u8).collect();
        h.byte_array_write(b, 5, &data);
        let mut out = vec![0u8; 40];
        h.byte_array_read(b, 5, &mut out);
        assert_eq!(out, data);
        let mut head = vec![0u8; 5];
        h.byte_array_read(b, 0, &mut head);
        assert_eq!(head, vec![0; 5]);
    }

    /// Write `data` at `offset` of two byte arrays holding the same
    /// background — one in bulk, one element by element — and check they
    /// agree on every element, read back in bulk as element by element,
    /// and keep the background outside the span.
    fn byte_array_bulk_matches_elements(
        h: &mut Heap,
        offset: usize,
        data: &[u8],
        slack: usize,
    ) -> Result<(), String> {
        let ba = match h.registry().by_name("byte[]") {
            Some(c) => c,
            None => h.define_array_class("byte[]", FieldKind::I8),
        };
        let len = offset + data.len() + slack;
        let background = |i: usize| (i as u64 * 131 + 7) & 0xff;
        let [bulk, each] = [(); 2].map(|_| {
            let a = h.alloc_array(ba, len).expect("test heap fits the array");
            (0..len).for_each(|i| h.array_set(a, i, background(i)));
            h.add_root(a)
        });
        let (bulk, each) = (h.root_ref(bulk), h.root_ref(each));
        h.byte_array_write(bulk, offset, data);
        for (k, &b) in data.iter().enumerate() {
            h.array_set(each, offset + k, u64::from(b));
        }
        let mut read = vec![0u8; data.len()];
        h.byte_array_read(each, offset, &mut read);
        let ctx = format!("offset {offset}, {} bytes, slack {slack}", data.len());
        if read != data {
            return Err(format!("bulk read disagrees with element writes at {ctx}"));
        }
        for i in 0..len {
            let want = match i.checked_sub(offset) {
                Some(k) if k < data.len() => u64::from(data[k]),
                _ => background(i),
            };
            let (b, e) = (h.array_get(bulk, i), h.array_get(each, i));
            if (b, e) != (want, want) {
                return Err(format!(
                    "element {i}: bulk {b:#x}, each {e:#x}, want {want:#x} at {ctx}"
                ));
            }
        }
        Ok(())
    }

    #[test]
    fn byte_array_bulk_io_matches_element_access_at_every_alignment() {
        let mut h = heap();
        for offset in 0..16 {
            for n in 0..=17 {
                let data: Vec<u8> = (0..n).map(|k| 0xa0 ^ (k * 29) as u8).collect();
                for slack in [0, 1, 9] {
                    byte_array_bulk_matches_elements(&mut h, offset, &data, slack).unwrap();
                }
            }
        }
    }

    /// Random spans up to a few KB, from `DECA_CHECK_SEED` when set.
    #[test]
    fn byte_array_bulk_io_matches_element_access_on_random_spans() {
        use deca_check::property::{check, gens, Config};
        let spans = gens::pair(
            gens::pair(gens::usize_in(0..64), gens::usize_in(0..12)),
            gens::vec_of(gens::any_u8(), 0..4096),
        );
        check(Config::with_cases(48), spans, |((offset, slack), data)| {
            let mut h = Heap::new(HeapConfig::with_total(8 << 20));
            byte_array_bulk_matches_elements(&mut h, *offset, data, *slack)
        });
    }

    #[test]
    fn char_array_bulk_io_matches_element_access() {
        let mut h = heap();
        let ca = h.define_array_class("char[]", FieldKind::Char);
        for len in [0usize, 1, 3, 4, 5, 8, 11] {
            let units: Vec<u16> = (0..len as u16).map(|i| 0xd800 ^ (i * 0x1111)).collect();
            let bulk = h.alloc_array(ca, len + 2).unwrap();
            h.array_set(bulk, len + 1, 0x7777); // past the write: must survive
            h.char_array_write(bulk, units.iter().copied());
            let each = h.alloc_array(ca, len).unwrap();
            for (i, &u) in units.iter().enumerate() {
                h.array_set(each, i, u64::from(u));
            }
            let read: Vec<u16> = h.char_array_units(each).collect();
            assert_eq!(read, units, "len {len}");
            let read: Vec<u16> = h.char_array_units(bulk).take(len).collect();
            assert_eq!(read, units, "len {len}");
            assert_eq!(h.array_get(bulk, len + 1), 0x7777, "len {len}");
        }
    }

    /// Inflate and compress against the general UTF-16 paths on every
    /// length up to a few words: the same words, slack elements past the
    /// text untouched, the same units read back, and a unit `>= 0x80` in
    /// any lane refused with `out` untouched.
    #[test]
    fn char_array_inflate_and_compress_match_the_utf16_paths() {
        let mut h = heap();
        let ca = h.define_array_class("char[]", FieldKind::Char);
        for len in 0..=17usize {
            let bytes: Vec<u8> = (0..len).map(|i| (0x20 + i * 7 % 0x5f) as u8).collect();
            let [inflated, written] = [(); 2].map(|_| {
                let a = h.alloc_array(ca, len + 3).unwrap();
                (len..len + 3).for_each(|i| h.array_set(a, i, 0xfeed));
                a
            });
            h.char_array_inflate(inflated, &bytes);
            h.char_array_write(written, bytes.iter().map(|&b| u16::from(b)));
            for i in 0..len + 3 {
                assert_eq!(
                    h.array_get(inflated, i),
                    h.array_get(written, i),
                    "len {len}, unit {i}"
                );
            }
            let exact = h.alloc_array(ca, len).unwrap();
            h.char_array_inflate(exact, &bytes);
            let mut out = vec![b'>'];
            assert!(h.char_array_compress(exact, &mut out), "len {len}");
            assert_eq!(out[1..], bytes[..], "len {len}");
            for (i, &b) in bytes.iter().enumerate() {
                h.array_set(exact, i, 0x80);
                let mut out = vec![b'>'];
                assert!(!h.char_array_compress(exact, &mut out), "len {len}, 0x80 at {i}");
                assert_eq!(out, b">", "len {len}");
                h.array_set(exact, i, u64::from(b));
            }
        }
    }

    /// `array_copy_refs` against the element loop of `array_get_ref` /
    /// `array_set_ref`, within one array and between young and old arrays:
    /// the same elements, and an old destination remembered exactly when a
    /// copied reference is young, so a minor collection keeps it alive.
    #[test]
    fn array_copy_refs_matches_the_element_loop_and_its_barrier() {
        let mut h = heap();
        let oa = h.define_array_class("Object[]", FieldKind::Ref);
        let boxed = h.define_class(ClassBuilder::new("Box").field("v", FieldKind::I64));
        // Larger than half of eden: born old.
        let old_len = 80_000;
        let [old_src, bulk, each] = [(); 3].map(|_| {
            let a = h.alloc_array(oa, old_len).unwrap();
            h.add_root(a)
        });
        assert_eq!(h.root_ref(bulk).space(), SpaceId::Old);
        let young_src = h.alloc_array(oa, 40).unwrap();
        let young_src = h.add_root(young_src);
        for i in 0..40 {
            let o = h.alloc(boxed).unwrap();
            h.write_i64(o, 0, i as i64);
            let src = h.root_ref(young_src);
            h.array_set_ref(src, i, if i % 3 == 0 { ObjRef::NULL } else { o });
        }
        let (bulk, each, old_src) = (h.root_ref(bulk), h.root_ref(each), h.root_ref(old_src));
        // Old to old, nulls only: nothing young is copied.
        h.array_copy_refs(old_src, 0, bulk, 0, 64);
        assert!(!h.header(bulk).is_remembered(), "a copy of no young ref remembers nothing");
        let src = h.root_ref(young_src);
        h.array_copy_refs(src, 3, bulk, 100, 30);
        for i in 0..30 {
            let v = h.array_get_ref(src, 3 + i);
            h.array_set_ref(each, 100 + i, v);
        }
        for i in 0..old_len {
            assert_eq!(h.array_get_ref(bulk, i), h.array_get_ref(each, i), "element {i}");
        }
        assert!(h.header(bulk).is_remembered());
        assert_eq!(h.remset.iter().filter(|&&r| r == bulk).count(), 1, "remembered once");
        // Within one array, overlapping: memmove semantics.
        let want: Vec<ObjRef> = (0..30).map(|i| h.array_get_ref(src, i)).collect();
        h.array_copy_refs(src, 0, src, 5, 30);
        assert_eq!((0..30).map(|i| h.array_get_ref(src, 5 + i)).collect::<Vec<_>>(), want);
        h.remove_root(young_src);
        h.minor_gc();
        for i in 0..30 {
            let (b, e) = (h.array_get_ref(bulk, 100 + i), h.array_get_ref(each, 100 + i));
            assert_eq!(b.is_null(), e.is_null(), "element {i}");
            if !b.is_null() {
                assert_eq!(h.read_i64(b, 0), (3 + i) as i64, "survived through the remset");
            }
        }
    }

    /// The typed accessors trust their static kind in release builds, as
    /// compiled JVM code does; debug builds still check it.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "typed access to a wrong-kind array")]
    fn typed_accessor_on_a_wrong_kind_array_panics_in_debug() {
        let mut h = heap();
        let ia = h.define_array_class("int[]", FieldKind::I32);
        let x = h.alloc_array(ia, 4).unwrap();
        h.array_get_f64(x, 0);
    }

    #[test]
    fn census_counts_allocated_objects() {
        let mut h = heap();
        let c = h.define_class(ClassBuilder::new("A").field("x", FieldKind::I64));
        let d = h.define_class(ClassBuilder::new("B").field("x", FieldKind::I64));
        for _ in 0..10 {
            h.alloc(c).unwrap();
        }
        for _ in 0..4 {
            h.alloc(d).unwrap();
        }
        assert_eq!(h.live_count(c), 10);
        assert_eq!(h.live_count(d), 4);
        assert_eq!(h.object_count(), 14);
        let census = h.census();
        assert_eq!(census[c.index()], 10);
        assert_eq!(census[d.index()], 4);
    }

    #[test]
    fn external_accounting() {
        let mut h = heap();
        let before = h.old_occupancy();
        let id = h.register_external(1 << 20).unwrap();
        assert!(h.old_occupancy() > before);
        assert_eq!(h.external_bytes(), 1 << 20);
        assert_eq!(h.external_count(), 1);
        h.unregister_external(id);
        assert_eq!(h.external_bytes(), 0);
        assert_eq!(h.external_count(), 0);
    }

    #[test]
    fn external_oom_when_over_budget() {
        let mut h = Heap::new(HeapConfig::with_total(3 << 20));
        let old_cap = h.spaces[SpaceId::Old as usize].nominal_cap();
        let id = h.register_external(old_cap - 1024).unwrap();
        assert!(h.register_external(1 << 20).is_err());
        h.unregister_external(id);
        assert!(h.register_external(1 << 20).is_ok());
    }

    /// How often the allocation-boundary property met each boundary.
    #[derive(Default)]
    struct Crossings {
        minor_gcs: Cell<u64>,
        humongous: Cell<u64>,
        retired: Cell<u64>,
    }

    /// One case of the allocation-boundary property: run `ops` on a 512 KB
    /// heap, each `(kind, size)` allocating a record of `size % 7` slots
    /// (kinds 0–5), a short array (6–8) or an array up to humongous (9).
    /// A concurrent cycle opens, its marker held, before op `start`, and
    /// `held` ops later the hold is released and the marker awaited, so
    /// that op's allocation must retire the cycle. The model counts
    /// objects and Σ nominal bytes; every fresh object must read zero, and
    /// is then dirtied so eden's reused words would show through.
    fn alloc_boundary_case(
        cms: bool,
        (start, held): (usize, usize),
        ops: &[(u32, usize)],
        seen: &Crossings,
    ) -> Result<(), String> {
        use deca_check::{prop_assert, prop_assert_eq};
        let algorithm = if cms { GcAlgorithm::Cms } else { GcAlgorithm::ParallelScavenge };
        let mut h = Heap::new(HeapConfig::with_total(512 << 10).with_algorithm(algorithm));
        let records: Vec<ClassId> = (0..7)
            .map(|n| {
                let fields =
                    (0..n).map(|i| if i % 2 == 0 { FieldKind::I64 } else { FieldKind::Ref });
                let b = fields.enumerate().fold(ClassBuilder::new(format!("R{n}")), |b, (i, k)| {
                    b.field(format!("f{i}"), k)
                });
                h.define_class(b)
            })
            .collect();
        let arrays =
            [(FieldKind::I8, 1), (FieldKind::I32, 4), (FieldKind::F64, 8), (FieldKind::Ref, 8)]
                .map(|(k, bytes)| (h.define_array_class(&format!("{k:?}[]"), k), bytes));
        let humongous_above = h.spaces[SpaceId::Eden as usize].nominal_cap() / 2;
        let keep = [h.add_root(ObjRef::NULL), h.add_root(ObjRef::NULL)];
        let (mut objects, mut bytes) = (0u64, 0u64);
        for (i, &(kind, size)) in ops.iter().enumerate() {
            if i == start {
                h.hold_concurrent_marker(true);
                h.start_concurrent_cycle();
            }
            let retiring = i == start + held && h.conc.is_some();
            if i == start + held {
                h.hold_concurrent_marker(false);
                while h.conc.as_ref().is_some_and(|c| !c.is_done()) {
                    std::thread::yield_now();
                }
            }
            let (cycles, minors) = (h.stats.concurrent_cycles, h.stats.minor_collections);
            let (o, nominal) = match kind {
                0..=5 => {
                    let n = size % 7;
                    let o = h.alloc(records[n]).map_err(|e| format!("op {i}: {e}"))?;
                    for f in 0..n {
                        prop_assert_eq!(h.read_word(o, f), 0, "op {i}: field {f} of a fresh R{n}");
                        if f % 2 == 0 {
                            h.write_i64(o, f, -1);
                        }
                    }
                    (o, (16 + 8 * n).next_multiple_of(8))
                }
                _ => {
                    let len = if kind == 9 { size } else { size % 65 };
                    let (class, elem_bytes) = arrays[size % 4];
                    let o = h.alloc_array(class, len).map_err(|e| format!("op {i}: {e}"))?;
                    prop_assert_eq!(h.array_len(o), len);
                    let ref_array = size % 4 == 3;
                    for j in 0..len {
                        prop_assert_eq!(h.array_get(o, j), 0, "op {i}: element {j} of {len}");
                        if !ref_array {
                            h.array_set(o, j, u64::MAX);
                        }
                    }
                    (o, (16 + len * elem_bytes).next_multiple_of(8))
                }
            };
            objects += 1;
            bytes += nominal as u64;
            prop_assert_eq!(h.stats.objects_allocated, objects, "op {i}: objects allocated");
            prop_assert_eq!(h.stats.bytes_allocated, bytes, "op {i}: bytes allocated");
            let humongous = nominal > humongous_above;
            prop_assert_eq!(
                o.space() == SpaceId::Old,
                humongous,
                "op {i}: {nominal} B born in {:?}",
                o.space()
            );
            if retiring {
                prop_assert!(
                    h.stats.concurrent_cycles > cycles,
                    "op {i}: the allocation after the marker finished did not retire its cycle"
                );
            }
            seen.humongous.set(seen.humongous.get() + u64::from(humongous));
            seen.minor_gcs.set(seen.minor_gcs.get() + h.stats.minor_collections - minors);
            seen.retired.set(seen.retired.get() + u64::from(retiring));
            if size % 3 == 0 {
                h.set_root(keep[i % 2], o);
            }
        }
        Ok(())
    }

    /// The allocation fast path and `alloc_slow` must be one allocator:
    /// the same counts, zeroed objects and the concurrent poll point, on
    /// both sides of the eden-full and humongous boundaries, under PS and
    /// CMS. Cases come from `DECA_CHECK_SEED` when set.
    #[test]
    fn alloc_fast_and_slow_paths_match_the_model() {
        use deca_check::property::{check, gens, Config};
        let ops = gens::vec_of(gens::pair(gens::u32_in(0..10), gens::usize_in(0..12_000)), 1..160);
        let cycle =
            gens::pair(gens::bools(), gens::pair(gens::usize_in(0..160), gens::usize_in(0..40)));
        let seen = Crossings::default();
        check(Config::with_cases(32), gens::pair(cycle, ops), |((cms, window), ops)| {
            alloc_boundary_case(*cms, *window, ops, &seen)
        });
        assert!(seen.minor_gcs.get() > 0, "no case filled eden");
        assert!(seen.humongous.get() > 0, "no case allocated a humongous array");
        assert!(seen.retired.get() > 0, "no case retired a cycle at an allocation");
    }

    #[test]
    fn humongous_objects_are_pretenured() {
        let mut h = heap();
        let da = h.define_array_class("double[]", FieldKind::F64);
        // Eden is ~0.8 of 1MB young; allocate an array bigger than half of it.
        let big = h.alloc_array(da, 80_000).unwrap();
        assert_eq!(big.space(), SpaceId::Old);
        assert!(h.old_used_bytes() >= 80_000 * 8);
    }
}
