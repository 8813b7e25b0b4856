//! The collectors: a copying (Cheney) minor collection over the young
//! generation, and the plan-dispatched full collections (compacting or
//! sweeping) over the entire heap.
//!
//! All perform genuine tracing work: every live object is visited, its
//! reference slots chased, and (where the plan moves objects) its words
//! copied. Collection *time* is measured wall time of that work, which is
//! what makes the reproduction's GC numbers meaningful — a heap holding
//! millions of live cached objects really does take proportionally longer
//! to collect, exactly the pathology the paper attacks (§2.1, §6.2, §6.4).
//!
//! Full collections mark with the parallel tracer (`crate::mark`) first
//! and then evacuate/sweep sequentially in ascending address order, so the
//! resulting heap layout is identical for any `gc_threads` setting.

use std::time::Instant;

use crate::class::{ClassId, ClassRegistry, FieldKind};
use crate::heap::{Heap, HOLE_CLASS};
use crate::mark::{mark_heap, MarkBits, MarkOutcome};
use crate::object::{Header, ObjRef};
use crate::space::{Space, SpaceId};
use crate::stats::{GcEvent, GcEventKind};

/// Snapshot of which payload slots of an object hold references.
enum RefSlots {
    /// No reference slots (primitive array).
    None,
    /// Every element is a reference (`Object[]`); payload length attached.
    All(usize),
    /// Record class: `(slot_count, ref bitmask)`.
    Bits(usize, u64),
}

/// Per-collection working counters.
#[derive(Default)]
struct TraceCounters {
    objects_traced: u64,
    bytes_copied: u64,
    bytes_promoted: u64,
    /// Objects promoted because the to-survivor was full, not by age —
    /// the signal HotSpot's ergonomics lower the tenuring threshold on.
    survivor_overflows: u64,
}

/// Number of payload words of the object whose header starts at
/// `words[off]`.
fn object_slots(registry: &ClassRegistry, words: &[u64], off: usize) -> usize {
    let h = Header(words[off]);
    let desc = registry.get(ClassId(h.class_id()));
    match desc.array_elem() {
        Some(elem) => Heap::array_slot_words(elem, words[off + 1] as usize),
        None => desc.slot_count(),
    }
}

impl Heap {
    fn survivor_from(&self) -> SpaceId {
        if self.from_is_s0 {
            SpaceId::S0
        } else {
            SpaceId::S1
        }
    }

    fn to_survivor(&self) -> SpaceId {
        if self.from_is_s0 {
            SpaceId::S1
        } else {
            SpaceId::S0
        }
    }

    fn is_young(&self, s: SpaceId) -> bool {
        s == SpaceId::Eden || s == self.survivor_from()
    }

    /// Run a minor collection: copy live young objects into the to-survivor
    /// (or promote them to the old generation), guided by roots and the
    /// remembered set. The old generation is *not* traced, which is why
    /// minor collections stay cheap even with a huge cached live set.
    pub fn minor_gc(&mut self) {
        let at = self.epoch.elapsed();
        let start = Instant::now();
        let mut counters = TraceCounters::default();

        let from = self.survivor_from();
        let to = self.to_survivor();
        debug_assert_eq!(self.spaces[to as usize].top(), 0, "to-survivor must be empty");

        debug_assert!(self.promo_queue.is_empty());

        // Roots.
        let mut roots = std::mem::take(&mut self.roots);
        roots.for_each_mut(|r| {
            *r = self.forward_young(*r, to, &mut counters);
        });
        self.roots = roots;

        // Remembered set: old objects that may reference young objects.
        let remset = std::mem::take(&mut self.remset);
        let mut new_remset = Vec::new();
        for holder in remset {
            counters.objects_traced += 1;
            let keeps_young = self.forward_object_fields(holder, to, &mut counters);
            let hw = &mut self.spaces[SpaceId::Old as usize].words[holder.offset()];
            if keeps_young {
                new_remset.push(holder);
            } else {
                *hw = Header(*hw).with_remembered(false).0;
            }
        }

        // Cheney scan: process copied survivors (a contiguous frontier)
        // and promoted objects (an explicit queue — promotions may reuse
        // free-list holes anywhere in the old space) until both drain.
        let mut to_scan = 0usize;
        let mut promo_idx = 0usize;
        loop {
            let mut progress = false;
            while to_scan < self.spaces[to as usize].top() {
                progress = true;
                counters.objects_traced += 1;
                let slots = {
                    let words = &self.spaces[to as usize].words;
                    object_slots(&self.registry, words, to_scan)
                };
                self.forward_slots_at(to, to_scan, to, &mut counters);
                to_scan += 2 + slots;
            }
            while promo_idx < self.promo_queue.len() {
                progress = true;
                let old_scan = self.promo_queue[promo_idx];
                promo_idx += 1;
                counters.objects_traced += 1;
                let keeps_young = self.forward_slots_at(SpaceId::Old, old_scan, to, &mut counters);
                if keeps_young {
                    let holder = ObjRef::new(SpaceId::Old, old_scan);
                    let hw = &mut self.spaces[SpaceId::Old as usize].words[old_scan];
                    let h = Header(*hw);
                    if !h.is_remembered() {
                        *hw = h.with_remembered(true).0;
                        new_remset.push(holder);
                    }
                }
            }
            if !progress {
                break;
            }
        }
        self.promo_queue.clear();
        self.remset = new_remset;

        // Young garbage dies wholesale with its spaces.
        self.spaces[SpaceId::Eden as usize].reset();
        self.spaces[from as usize].reset();
        self.from_is_s0 = !self.from_is_s0;

        // Tenuring ergonomics: overflow lowers the threshold (promote
        // earlier next time), headroom raises it back toward the config.
        if counters.survivor_overflows > 0 {
            self.cur_promote_age = self.cur_promote_age.saturating_sub(1).max(1);
        } else if self.cur_promote_age < self.config.promote_age {
            self.cur_promote_age += 1;
        }

        let duration = start.elapsed();
        let live_after = self.used_bytes() + self.external_bytes;
        self.stats.bytes_copied += counters.bytes_copied;
        self.stats.bytes_promoted += counters.bytes_promoted;
        self.stats.record(GcEvent {
            kind: GcEventKind::Minor,
            at,
            duration,
            objects_traced: counters.objects_traced,
            live_bytes_after: live_after,
        });

        // Old-generation trigger: once occupancy crosses the plan's
        // initiating threshold, the concurrent plans start a marking cycle
        // and the stop-the-world plans collect immediately.
        self.maybe_trigger_old_collection();
    }

    /// Plan-dispatched response to eden exhaustion (the allocator's slow
    /// path). Generational plans run a minor collection; `SemiSpace`
    /// collects the whole heap.
    pub(crate) fn nursery_collect(&mut self) {
        let plan = self.config.plan;
        plan.instance().nursery_collection(self);
    }

    /// Minor-collection tail: retire a finished concurrent cycle, then
    /// consult the plan's initiating occupancy.
    fn maybe_trigger_old_collection(&mut self) {
        self.poll_gc();
        if self.old_occupancy() > self.config.plan.initiating_occupancy() {
            if self.config.concurrent {
                self.maybe_start_concurrent_cycle();
            } else {
                self.full_gc();
            }
        }
    }

    /// Forward one reference with respect to a minor collection: young
    /// objects are copied/promoted, old objects are returned unchanged.
    fn forward_young(&mut self, r: ObjRef, to: SpaceId, counters: &mut TraceCounters) -> ObjRef {
        if r.is_null() || !self.is_young(r.space()) {
            return r;
        }
        let src_space = r.space();
        let off = r.offset();
        let h = Header(self.spaces[src_space as usize].words[off]);
        if h.is_forwarded() {
            return ObjRef::from_raw(self.spaces[src_space as usize].words[off + 1]);
        }

        let class = ClassId(h.class_id());
        let desc = self.registry.get(class);
        let len = self.spaces[src_space as usize].words[off + 1] as usize;
        let (slots, nominal) = match desc.array_elem() {
            Some(elem) => (Heap::array_slot_words(elem, len), desc.nominal_size(len)),
            None => (desc.slot_count(), desc.nominal_size(0)),
        };

        let age = h.age().saturating_add(1);
        let by_age = age >= self.cur_promote_age;
        let by_space = !self.spaces[to as usize].fits(nominal);
        if by_space && !by_age {
            counters.survivor_overflows += 1;
        }
        let promote = by_age || by_space;
        let dst_space = if promote { SpaceId::Old } else { to };

        // Reserve the destination first (promotion may reuse a free-list
        // hole in mark-sweep mode), then copy. Source and destination are
        // distinct spaces by construction.
        let new_off = if promote {
            let off = self.alloc_old_words(slots, nominal);
            self.promo_queue.push(off);
            off
        } else {
            self.spaces[to as usize].bump(slots, nominal)
        };
        let [src, dst] = self
            .spaces
            .get_disjoint_mut([src_space as usize, dst_space as usize])
            .expect("source and destination spaces are distinct");
        let total = 2 + slots;
        dst.words[new_off..new_off + total].copy_from_slice(&src.words[off..off + total]);
        // Fresh header state in the copy: updated age, not remembered.
        dst.words[new_off] = Header::new(class.index() as u32).with_age(age).0;
        dst.words[new_off + 1] = src.words[off + 1];
        let new_ref = ObjRef::new(dst_space, new_off);
        // Forwarding pointer in the source.
        src.words[off] = Header::forwarded().0;
        src.words[off + 1] = new_ref.raw();

        counters.bytes_copied += nominal as u64;
        if promote {
            counters.bytes_promoted += nominal as u64;
        }
        new_ref
    }

    /// Forward every reference slot of the object at `(space, off)`.
    /// Returns true iff, after forwarding, the object still references a
    /// young object (only possible when `space` is `Old`, where the target
    /// may be in the to-survivor).
    fn forward_slots_at(
        &mut self,
        space: SpaceId,
        off: usize,
        to: SpaceId,
        counters: &mut TraceCounters,
    ) -> bool {
        let h = Header(self.spaces[space as usize].words[off]);
        let class = ClassId(h.class_id());
        // Snapshot the reference layout so no registry borrow is held while
        // forwarding (which mutates the heap).
        let ref_slots: RefSlots = {
            let desc = self.registry.get(class);
            match desc.array_elem() {
                Some(FieldKind::Ref) => {
                    RefSlots::All(self.spaces[space as usize].words[off + 1] as usize)
                }
                Some(_) => RefSlots::None,
                None => RefSlots::Bits(desc.slot_count(), desc.ref_mask()),
            }
        };
        let mut keeps_young = false;
        let mut visit = |this: &mut Heap, i: usize, keeps_young: &mut bool| {
            let slot = off + 2 + i;
            let v = ObjRef::from_raw(this.spaces[space as usize].words[slot]);
            if v.is_null() {
                return;
            }
            let nv = this.forward_young(v, to, counters);
            this.spaces[space as usize].words[slot] = nv.raw();
            if !nv.is_null() && nv.space() == to {
                *keeps_young = true;
            }
        };
        match ref_slots {
            RefSlots::None => {}
            RefSlots::All(len) => {
                for i in 0..len {
                    visit(self, i, &mut keeps_young);
                }
            }
            RefSlots::Bits(n, mask) => {
                for i in 0..n {
                    if mask & (1u64 << i) != 0 {
                        visit(self, i, &mut keeps_young);
                    }
                }
            }
        }
        keeps_young
    }

    /// Forward the fields of a remembered old object (like
    /// [`Heap::forward_slots_at`] for `Old`).
    fn forward_object_fields(
        &mut self,
        holder: ObjRef,
        to: SpaceId,
        counters: &mut TraceCounters,
    ) -> bool {
        self.forward_slots_at(SpaceId::Old, holder.offset(), to, counters)
    }

    /// Run a stop-the-world full collection using the configured plan.
    /// Cost is dominated by tracing the live set — with a heap full of
    /// cached objects, this is the expensive, futile collection of paper
    /// §2.2/§6.2. Any in-flight concurrent marking cycle is aborted first
    /// (the concurrent-mode-failure path).
    pub fn full_gc(&mut self) {
        self.cancel_concurrent_cycle();
        let plan = self.config.plan;
        plan.instance().full_collection(self);
        self.set_conc_floor();
    }

    /// Stop-the-world parallel mark of the whole heap from the roots,
    /// fanned out over `gc_threads` workers.
    fn mark_all(&mut self) -> MarkOutcome {
        let mut root_refs: Vec<ObjRef> = Vec::new();
        let mut roots = std::mem::take(&mut self.roots);
        roots.for_each_mut(|r| root_refs.push(*r));
        self.roots = roots;
        mark_heap(&self.spaces, &self.registry, &root_refs, self.config.gc_threads, None)
            .expect("uncancelled mark runs to completion")
    }

    /// Compute `(payload slots, nominal bytes)` of the object at
    /// `(space, off)`.
    fn object_shape(&self, space: SpaceId, off: usize) -> (ClassId, u8, usize, usize) {
        let words = &self.spaces[space as usize].words;
        let h = Header(words[off]);
        let class = ClassId(h.class_id());
        let desc = self.registry.get(class);
        let len = words[off + 1] as usize;
        let (slots, nominal) = match desc.array_elem() {
            Some(elem) => (Heap::array_slot_words(elem, len), desc.nominal_size(len)),
            None => (desc.slot_count(), desc.nominal_size(0)),
        };
        (class, h.age(), slots, nominal)
    }

    /// Mark-compact by evacuation: parallel-mark the live set, then copy
    /// the survivors into a fresh old generation in ascending address
    /// order ([Old, Eden, S0, S1] — deterministic for any thread count).
    pub(crate) fn collect_compact(&mut self) {
        let at = self.epoch.elapsed();
        let start = Instant::now();
        let mut counters = TraceCounters::default();
        let outcome = self.mark_all();
        counters.objects_traced += outcome.objects_marked;

        let old_cap = self.spaces[SpaceId::Old as usize].nominal_cap();
        let mut new_old = Space::new(old_cap);

        // Evacuate every marked object, leaving a forwarding pointer in
        // the source.
        for space in [SpaceId::Old, SpaceId::Eden, SpaceId::S0, SpaceId::S1] {
            for off in outcome.marks[space as usize].iter_marked() {
                let (class, age, slots, nominal) = self.object_shape(space, off);
                let new_off = new_old.bump(slots, nominal);
                let total = 2 + slots;
                let src = &mut self.spaces[space as usize];
                new_old.words[new_off..new_off + total]
                    .copy_from_slice(&src.words[off..off + total]);
                // Fresh header state: age kept, mark/remembered cleared.
                new_old.words[new_off] = Header::new(class.index() as u32).with_age(age).0;
                let new_ref = ObjRef::new(SpaceId::Old, new_off);
                src.words[off] = Header::forwarded().0;
                src.words[off + 1] = new_ref.raw();
                counters.bytes_copied += nominal as u64;
            }
        }

        // Fix references: every target of a live object was itself marked
        // and therefore evacuated — follow the forwarding pointers.
        let mut scan = 0usize;
        while scan < new_old.top() {
            let h = Header(new_old.words[scan]);
            let class = ClassId(h.class_id());
            let desc = self.registry.get(class);
            let (slots, ref_slots): (usize, RefSlots) = match desc.array_elem() {
                Some(elem) => {
                    let len = new_old.words[scan + 1] as usize;
                    let slots = Heap::array_slot_words(elem, len);
                    if elem.is_ref() {
                        (slots, RefSlots::All(len))
                    } else {
                        (slots, RefSlots::None)
                    }
                }
                None => (desc.slot_count(), RefSlots::Bits(desc.slot_count(), desc.ref_mask())),
            };
            let mut fix = |slot: usize| {
                let v = ObjRef::from_raw(new_old.words[slot]);
                if v.is_null() {
                    return;
                }
                let src = &self.spaces[v.space() as usize];
                debug_assert!(
                    Header(src.words[v.offset()]).is_forwarded(),
                    "live object's target must have been evacuated"
                );
                new_old.words[slot] = src.words[v.offset() + 1];
            };
            match ref_slots {
                RefSlots::None => {}
                RefSlots::All(len) => {
                    for i in 0..len {
                        fix(scan + 2 + i);
                    }
                }
                RefSlots::Bits(n, mask) => {
                    for i in 0..n {
                        if mask & (1u64 << i) != 0 {
                            fix(scan + 2 + i);
                        }
                    }
                }
            }
            scan += 2 + slots;
        }

        // Roots follow the forwarding pointers too.
        let mut roots = std::mem::take(&mut self.roots);
        roots.for_each_mut(|r| {
            if !r.is_null() {
                let src = &self.spaces[r.space() as usize];
                debug_assert!(Header(src.words[r.offset()]).is_forwarded());
                *r = ObjRef::from_raw(src.words[r.offset() + 1]);
            }
        });
        self.roots = roots;

        // "Trace" external pages: one touch each — the cheap part Deca buys.
        let mut ext_live = 0usize;
        for &b in &self.externals {
            counters.objects_traced += 1;
            ext_live += b;
        }
        debug_assert_eq!(ext_live, self.external_bytes);

        // Install the compacted old generation; the young generation is
        // empty (all survivors were tenured by the copy).
        self.spaces[SpaceId::Old as usize] = new_old;
        self.spaces[SpaceId::Eden as usize].reset();
        self.spaces[SpaceId::S0 as usize].reset();
        self.spaces[SpaceId::S1 as usize].reset();
        self.remset.clear();
        self.old_free.clear();

        let duration = start.elapsed();
        let live_after = self.used_bytes() + self.external_bytes;
        self.stats.bytes_copied += counters.bytes_copied;
        self.stats.record(GcEvent {
            kind: GcEventKind::Full,
            at,
            duration,
            objects_traced: counters.objects_traced,
            live_bytes_after: live_after,
        });
    }
}

impl Heap {
    /// CMS/immix-style full collection: parallel-mark the live set, sweep
    /// the old generation's garbage into a coalesced free list (leaving
    /// fragmentation), and evacuate young survivors into the holes.
    /// `min_hole_words` is the sweeping granularity — see
    /// [`crate::GcPlanKind::min_hole_words`].
    pub(crate) fn collect_sweep(&mut self, min_hole_words: usize) {
        let at = self.epoch.elapsed();
        let start = Instant::now();
        let mut counters = TraceCounters::default();
        let outcome = self.mark_all();
        counters.objects_traced += outcome.objects_marked;

        // ---- 1. Sweep the old space against the mark bitmap.
        self.sweep_old_with_marks(&outcome.marks[SpaceId::Old as usize], min_hole_words);

        // ---- 2. Evacuate marked young objects into the holes, in
        // ascending address order per space (deterministic layout).
        let mut evacuated: Vec<usize> = Vec::new();
        for space in [SpaceId::Eden, SpaceId::S0, SpaceId::S1] {
            for off in outcome.marks[space as usize].iter_marked() {
                let (_, _, slots, nominal) = self.object_shape(space, off);
                let new_off = self.alloc_old_words(slots, nominal);
                let total = 2 + slots;
                let [src, dst] = self
                    .spaces
                    .get_disjoint_mut([space as usize, SpaceId::Old as usize])
                    .expect("young and old are distinct");
                dst.words[new_off..new_off + total].copy_from_slice(&src.words[off..off + total]);
                let new_ref = ObjRef::new(SpaceId::Old, new_off);
                src.words[off] = Header::forwarded().0;
                src.words[off + 1] = new_ref.raw();
                counters.bytes_copied += nominal as u64;
                counters.bytes_promoted += nominal as u64;
                evacuated.push(new_off);
            }
        }

        // ---- 3. Fix references and scrub header state on every live old
        // object (in-place survivors + evacuated copies).
        let live_old: Vec<usize> =
            outcome.marks[SpaceId::Old as usize].iter_marked().chain(evacuated).collect();
        for off in live_old {
            let h = Header(self.spaces[SpaceId::Old as usize].words[off]);
            let class = ClassId(h.class_id());
            self.spaces[SpaceId::Old as usize].words[off] =
                Header::new(class.index() as u32).with_age(h.age()).0;
            let desc = self.registry.get(class);
            let fix = |heap: &mut Heap, slot: usize| {
                let v = ObjRef::from_raw(heap.spaces[SpaceId::Old as usize].words[slot]);
                if v.is_null() || v.space() == SpaceId::Old {
                    return;
                }
                let fh = Header(heap.spaces[v.space() as usize].words[v.offset()]);
                debug_assert!(fh.is_forwarded(), "live young object must have been evacuated");
                heap.spaces[SpaceId::Old as usize].words[slot] =
                    heap.spaces[v.space() as usize].words[v.offset() + 1];
            };
            match desc.array_elem() {
                Some(FieldKind::Ref) => {
                    let len = self.spaces[SpaceId::Old as usize].words[off + 1] as usize;
                    for i in 0..len {
                        fix(self, off + 2 + i);
                    }
                }
                Some(_) => {}
                None => {
                    let mask = desc.ref_mask();
                    for i in 0..desc.slot_count() {
                        if mask & (1u64 << i) != 0 {
                            fix(self, off + 2 + i);
                        }
                    }
                }
            }
        }
        // Roots: follow forwarding for evacuated targets.
        let mut roots = std::mem::take(&mut self.roots);
        roots.for_each_mut(|r| {
            if !r.is_null() && r.space() != SpaceId::Old {
                let fh = Header(self.spaces[r.space() as usize].words[r.offset()]);
                debug_assert!(fh.is_forwarded());
                *r = ObjRef::from_raw(self.spaces[r.space() as usize].words[r.offset() + 1]);
            }
        });
        self.roots = roots;

        // ---- 4. The young generation is empty; externals get their one
        // trace touch each.
        let mut ext_live = 0usize;
        for &b in &self.externals {
            counters.objects_traced += 1;
            ext_live += b;
        }
        debug_assert_eq!(ext_live, self.external_bytes);
        self.spaces[SpaceId::Eden as usize].reset();
        self.spaces[SpaceId::S0 as usize].reset();
        self.spaces[SpaceId::S1 as usize].reset();
        self.remset.clear();

        let duration = start.elapsed();
        let live_after = self.used_bytes() + self.external_bytes;
        self.stats.bytes_copied += counters.bytes_copied;
        self.stats.bytes_promoted += counters.bytes_promoted;
        self.stats.record(GcEvent {
            kind: GcEventKind::Full,
            at,
            duration,
            objects_traced: counters.objects_traced,
            live_bytes_after: live_after,
        });
    }

    /// Sweep the old space against a mark bitmap: dead objects and
    /// existing holes coalesce into runs; runs of at least
    /// `min_hole_words` go on the free list, smaller ones become unusable
    /// fragmentation (hole headers outside the free list), and a trailing
    /// run shrinks the arena. Live objects do not move. Shared by
    /// [`Heap::collect_sweep`] and the concurrent remark
    /// (`crate::concurrent`).
    pub(crate) fn sweep_old_with_marks(&mut self, marks: &MarkBits, min_hole_words: usize) {
        let mut runs: Vec<(usize, usize)> = Vec::new();
        let mut run_start: Option<usize> = None;
        let mut off = 0usize;
        let top = self.spaces[SpaceId::Old as usize].top();
        while off < top {
            let h = Header(self.spaces[SpaceId::Old as usize].words[off]);
            let total = if h.class_id() == HOLE_CLASS {
                self.spaces[SpaceId::Old as usize].words[off + 1] as usize
            } else {
                let class = ClassId(h.class_id());
                let desc = self.registry.get(class);
                let len = self.spaces[SpaceId::Old as usize].words[off + 1] as usize;
                match desc.array_elem() {
                    Some(elem) => 2 + Heap::array_slot_words(elem, len),
                    None => 2 + desc.slot_count(),
                }
            };
            let dead = if h.class_id() == HOLE_CLASS {
                true
            } else if marks.is_marked(off) {
                false
            } else {
                // Reclaim the nominal accounting of the dead object.
                let class = ClassId(h.class_id());
                let desc = self.registry.get(class);
                let len = self.spaces[SpaceId::Old as usize].words[off + 1] as usize;
                let nominal = match desc.array_elem() {
                    Some(_) => desc.nominal_size(len),
                    None => desc.nominal_size(0),
                };
                self.spaces[SpaceId::Old as usize].sub_nominal(nominal);
                true
            };
            if dead {
                if run_start.is_none() {
                    run_start = Some(off);
                }
            } else if let Some(rs) = run_start.take() {
                runs.push((rs, off - rs));
            }
            off += total;
        }
        if let Some(rs) = run_start {
            // Trailing free run: give it back to the bump allocator.
            self.spaces[SpaceId::Old as usize].truncate(rs);
        }
        let mut new_free: Vec<(usize, usize)> = Vec::new();
        for &(hole, total) in &runs {
            debug_assert!(total >= 2);
            self.spaces[SpaceId::Old as usize].words[hole] = Header::new(HOLE_CLASS).0;
            self.spaces[SpaceId::Old as usize].words[hole + 1] = total as u64;
            if total >= min_hole_words {
                new_free.push((hole, total));
            }
        }
        self.old_free = new_free;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::ClassBuilder;
    use crate::heap::HeapConfig;
    use crate::plan::GcPlanKind;
    use std::time::Duration;

    fn heap() -> Heap {
        Heap::new(HeapConfig::small())
    }

    #[test]
    fn minor_gc_preserves_rooted_graph() {
        let mut h = heap();
        let node = h.define_class(
            ClassBuilder::new("Node").field("v", FieldKind::I64).field("next", FieldKind::Ref),
        );
        // Build a rooted linked list plus unrooted garbage.
        let mut head = ObjRef::NULL;
        for i in 0..100 {
            let n = h.alloc(node).unwrap();
            h.write_i64(n, 0, i);
            h.write_ref(n, 1, head);
            head = n;
            let stack = h.push_stack(head);
            let _garbage = h.alloc(node).unwrap();
            head = h.stack_ref(stack);
            h.truncate_stack(stack);
        }
        let root = h.add_root(head);
        let live_before = h.live_count(node);
        assert_eq!(live_before, 200);

        h.minor_gc();

        // Garbage died; the 100-node list survived with values intact.
        assert_eq!(h.live_count(node), 100);
        let mut cur = h.root_ref(root);
        let mut expect = 99;
        while !cur.is_null() {
            assert_eq!(h.read_i64(cur, 0), expect);
            expect -= 1;
            cur = h.read_ref(cur, 1);
        }
        assert_eq!(expect, -1);
        assert_eq!(h.stats().minor_collections, 1);
    }

    #[test]
    fn promotion_after_age_threshold() {
        let mut h = heap();
        let c = h.define_class(ClassBuilder::new("K").field("v", FieldKind::I64));
        let obj = h.alloc(c).unwrap();
        h.write_i64(obj, 0, 42);
        let root = h.add_root(obj);
        for _ in 0..h.config().promote_age {
            h.minor_gc();
        }
        let r = h.root_ref(root);
        assert_eq!(r.space(), SpaceId::Old, "object should be promoted");
        assert_eq!(h.read_i64(r, 0), 42);
    }

    #[test]
    fn remembered_set_keeps_young_objects_alive() {
        let mut h = heap();
        let holder = h.define_class(ClassBuilder::new("Holder").field("x", FieldKind::Ref));
        let leaf = h.define_class(ClassBuilder::new("Leaf").field("v", FieldKind::I64));

        // Promote a holder to old.
        let hobj = h.alloc(holder).unwrap();
        let root = h.add_root(hobj);
        for _ in 0..h.config().promote_age {
            h.minor_gc();
        }
        let hobj = h.root_ref(root);
        assert_eq!(hobj.space(), SpaceId::Old);

        // Store a fresh young object into the old holder; the only path to
        // it is the old->young edge, which the barrier must remember.
        let young = h.alloc(leaf).unwrap();
        h.write_i64(young, 0, 7);
        h.write_ref(hobj, 0, young);
        h.minor_gc();
        let survived = h.read_ref(h.root_ref(root), 0);
        assert!(!survived.is_null());
        assert_eq!(h.read_i64(survived, 0), 7);
    }

    #[test]
    fn full_gc_compacts_and_drops_garbage() {
        let mut h = heap();
        let c = h.define_class(ClassBuilder::new("A").field("x", FieldKind::I64));
        let keep = h.alloc(c).unwrap();
        h.write_i64(keep, 0, 5);
        let root = h.add_root(keep);
        for _ in 0..1000 {
            h.alloc(c).unwrap();
        }
        h.full_gc();
        assert_eq!(h.live_count(c), 1);
        let keep = h.root_ref(root);
        assert_eq!(keep.space(), SpaceId::Old);
        assert_eq!(h.read_i64(keep, 0), 5);
        assert_eq!(h.stats().full_collections, 1);
    }

    #[test]
    fn full_gc_traces_whole_object_graph() {
        let mut h = heap();
        let pair = h.define_class(
            ClassBuilder::new("Pair").field("a", FieldKind::Ref).field("b", FieldKind::Ref),
        );
        let leaf = h.define_class(ClassBuilder::new("Leaf").field("v", FieldKind::I64));
        let arr = h.define_array_class("Object[]", FieldKind::Ref);

        let l1 = h.alloc(leaf).unwrap();
        h.write_i64(l1, 0, 1);
        let s1 = h.push_stack(l1);
        let l2 = h.alloc(leaf).unwrap();
        h.write_i64(l2, 0, 2);
        let s2 = h.push_stack(l2);
        let a = h.alloc_array(arr, 2).unwrap();
        h.array_set_ref(a, 0, h.stack_ref(s1));
        h.array_set_ref(a, 1, h.stack_ref(s2));
        let sa = h.push_stack(a);
        let p = h.alloc(pair).unwrap();
        h.write_ref(p, 0, h.stack_ref(sa));
        h.write_ref(p, 1, h.stack_ref(s1)); // shared leaf
        h.truncate_stack(s1);
        let root = h.add_root(p);

        h.full_gc();
        h.full_gc(); // idempotent on an already-compacted heap

        let p = h.root_ref(root);
        let a = h.read_ref(p, 0);
        let shared_via_pair = h.read_ref(p, 1);
        let shared_via_array = h.array_get_ref(a, 0);
        assert_eq!(
            shared_via_pair, shared_via_array,
            "object sharing must be preserved by compaction"
        );
        assert_eq!(h.read_i64(shared_via_array, 0), 1);
        assert_eq!(h.read_i64(h.array_get_ref(a, 1), 0), 2);
    }

    #[test]
    fn allocation_pressure_triggers_collections() {
        let mut h = Heap::new(HeapConfig::with_total(1 << 20));
        let c = h.define_class(
            ClassBuilder::new("Tmp").field("a", FieldKind::F64).field("b", FieldKind::F64),
        );
        for _ in 0..200_000 {
            h.alloc(c).unwrap(); // all garbage
        }
        assert!(h.stats().minor_collections > 0, "eden pressure must trigger minor GCs");
        // All garbage: no promotion-driven full collections required.
        let census = h.live_count(c);
        assert!(census < 200_000);
    }

    #[test]
    fn saturated_heap_triggers_full_gcs() {
        let mut h = Heap::new(HeapConfig::with_total(1 << 20));
        let c = h.define_class(ClassBuilder::new("Cached").field("v", FieldKind::I64));
        let arr = h.define_array_class("Object[]", FieldKind::Ref);
        // Fill ~70% of old gen with live cached objects.
        let n = (700 << 10) / 24 / 2;
        let holder = h.alloc_array(arr, n).unwrap();
        let root = h.add_root(holder);
        for i in 0..n {
            let o = h.alloc(c).unwrap();
            h.write_i64(o, 0, i as i64);
            let holder = h.root_ref(root);
            h.array_set_ref(holder, i, o);
        }
        let full_before = h.stats().full_collections;
        // Now churn temporaries; survivors promote into a nearly-full old gen.
        for _ in 0..200_000 {
            h.alloc(c).unwrap();
        }
        let _ = full_before; // full GCs may or may not fire depending on promotion
                             // The cached data must still be intact regardless.
        let holder = h.root_ref(root);
        for i in (0..n).step_by(97) {
            let o = h.array_get_ref(holder, i);
            assert_eq!(h.read_i64(o, 0), i as i64);
        }
    }

    #[test]
    fn array_write_barrier_remembers_old_to_young() {
        let mut h = heap();
        let arr_cls = h.define_array_class("Object[]", FieldKind::Ref);
        let leaf = h.define_class(ClassBuilder::new("Leaf").field("v", FieldKind::I64));
        // Promote an Object[] to old.
        let arr = h.alloc_array(arr_cls, 4).unwrap();
        let root = h.add_root(arr);
        for _ in 0..h.config().promote_age {
            h.minor_gc();
        }
        let arr = h.root_ref(root);
        assert_eq!(arr.space(), SpaceId::Old);
        // Store a fresh young object through the array barrier.
        let young = h.alloc(leaf).unwrap();
        h.write_i64(young, 0, 99);
        h.array_set_ref(arr, 2, young);
        h.minor_gc();
        let survived = h.array_get_ref(h.root_ref(root), 2);
        assert!(!survived.is_null());
        assert_eq!(h.read_i64(survived, 0), 99);
    }

    #[test]
    fn byte_array_contents_survive_collections() {
        // SparkSer cache blocks are heap byte[]; their packed bytes must
        // survive copying and compaction bit-for-bit.
        let mut h = heap();
        let ba = h.define_array_class("byte[]", FieldKind::I8);
        let data: Vec<u8> = (0..997).map(|i| (i * 31 % 251) as u8).collect();
        let arr = h.alloc_array(ba, data.len()).unwrap();
        h.byte_array_write(arr, 0, &data);
        let root = h.add_root(arr);
        h.minor_gc();
        h.full_gc();
        h.minor_gc();
        let arr = h.root_ref(root);
        let mut out = vec![0u8; data.len()];
        h.byte_array_read(arr, 0, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn stack_roots_pin_and_release() {
        let mut h = heap();
        let c = h.define_class(ClassBuilder::new("T").field("v", FieldKind::I64));
        let o = h.alloc(c).unwrap();
        h.write_i64(o, 0, 5);
        let s = h.push_stack(o);
        h.minor_gc();
        let o = h.stack_ref(s);
        assert_eq!(h.read_i64(o, 0), 5, "stack root pinned across GC");
        h.truncate_stack(s);
        h.minor_gc();
        assert_eq!(h.live_count(c), 0, "popped stack root lets the object die");
    }

    #[test]
    fn tenuring_threshold_adapts_to_survivor_overflow() {
        // Tiny survivors: keeping many live young objects across a minor
        // collection overflows the to-survivor and must drop the
        // threshold; subsequent calm collections raise it back.
        let mut cfg = HeapConfig::with_total(2 << 20);
        cfg.survivor_fraction = 0.02; // ~13KB survivors
        let mut h = Heap::new(cfg);
        let c = h.define_class(ClassBuilder::new("K").field("v", FieldKind::I64));
        let arr = h.define_array_class("Object[]", FieldKind::Ref);
        let n = 4000; // ~96KB of live young objects
        let holder = h.alloc_array(arr, n).unwrap();
        let root = h.add_root(holder);
        for i in 0..n {
            let o = h.alloc(c).unwrap();
            let holder = h.root_ref(root);
            h.array_set_ref(holder, i, o);
        }
        let before = h.tenuring_threshold();
        h.minor_gc();
        assert!(h.tenuring_threshold() < before, "overflow lowers the threshold");
        // With everything promoted, calm minor GCs restore it.
        for _ in 0..before {
            h.minor_gc();
        }
        assert_eq!(h.tenuring_threshold(), before);
    }

    fn ms_heap() -> Heap {
        // Stop-the-world mark-sweep: the concurrent marker has its own
        // tests below; these exercise the sweep/evacuate mechanics.
        Heap::new(HeapConfig::small().with_plan(GcPlanKind::MarkSweep).with_concurrent(false))
    }

    #[test]
    fn mark_sweep_preserves_graphs_and_frees_garbage() {
        let mut h = ms_heap();
        let node = h.define_class(
            ClassBuilder::new("Node").field("v", FieldKind::I64).field("next", FieldKind::Ref),
        );
        let mut head = ObjRef::NULL;
        for i in 0..200 {
            let s = h.push_stack(head);
            let n = h.alloc(node).unwrap();
            h.write_i64(n, 0, i);
            let prev = h.stack_ref(s);
            h.write_ref(n, 1, prev);
            h.truncate_stack(s);
            head = n;
            h.alloc(node).unwrap(); // garbage
        }
        let root = h.add_root(head);
        h.full_gc();
        assert_eq!(h.live_count(node), 200);
        let mut cur = h.root_ref(root);
        for i in (0..200).rev() {
            assert_eq!(h.read_i64(cur, 0), i);
            cur = h.read_ref(cur, 1);
        }
        assert!(cur.is_null());
        // A second collection over the swept heap is stable.
        h.full_gc();
        assert_eq!(h.live_count(node), 200);
    }

    #[test]
    fn mark_sweep_reuses_holes() {
        let mut h = ms_heap();
        let c = h.define_class(
            ClassBuilder::new("K").field("a", FieldKind::I64).field("b", FieldKind::I64),
        );
        // Promote a batch, then let half die.
        let mut roots = Vec::new();
        for i in 0..1000 {
            let o = h.alloc(c).unwrap();
            h.write_i64(o, 0, i);
            roots.push(h.add_root(o));
        }
        h.full_gc(); // everything tenures (still rooted)
        for (i, r) in roots.iter().enumerate() {
            if i % 2 == 0 {
                h.remove_root(*r);
            }
        }
        let used_before = h.old_used_bytes();
        h.full_gc(); // sweep the dead half into holes
        assert!(h.old_used_bytes() < used_before, "sweep reclaims nominal bytes");
        assert!(!h.old_free.is_empty() || h.old_used_bytes() * 2 <= used_before);

        // New promotions fill the holes instead of growing the arena.
        let arena_top = h.spaces[SpaceId::Old as usize].top();
        for i in 0..400 {
            let o = h.alloc(c).unwrap();
            h.write_i64(o, 0, 10_000 + i);
            h.add_root(o);
        }
        h.full_gc();
        assert!(
            h.spaces[SpaceId::Old as usize].top() <= arena_top + 16,
            "holes absorbed the new live objects (top {} vs {})",
            h.spaces[SpaceId::Old as usize].top(),
            arena_top
        );
        // Surviving odd-indexed values are intact.
        let mut seen = 0;
        for (i, r) in roots.iter().enumerate() {
            if i % 2 == 1 {
                let o = h.root_ref(*r);
                assert_eq!(h.read_i64(o, 0), i as i64);
                seen += 1;
            }
        }
        assert_eq!(seen, 500);
    }

    #[test]
    fn mark_sweep_fragmentation_blocks_large_allocations() {
        // Alternate small/large objects, free the large ones: total free
        // space is plentiful but no hole fits a huge array — the
        // fragmentation cost a compacting collector never shows.
        let cfg =
            HeapConfig::with_total(2 << 20).with_plan(GcPlanKind::MarkSweep).with_concurrent(false);
        let mut h = Heap::new(cfg);
        let small = h.define_class(ClassBuilder::new("S").field("v", FieldKind::I64));
        let arr = h.define_array_class("long[]", FieldKind::I64);
        let mut big_roots = Vec::new();
        for _ in 0..220 {
            let s = h.alloc(small).unwrap();
            h.add_root(s);
            let big = h.alloc_array(arr, 700).unwrap(); // ~5.6KB
            big_roots.push(h.add_root(big));
        }
        h.full_gc(); // tenure everything
        for r in big_roots {
            h.remove_root(r);
        }
        h.full_gc(); // sweep the big arrays into ~5.6KB holes
        let free_nominal = {
            let old = &h.spaces[SpaceId::Old as usize];
            old.nominal_cap() - old.nominal_used()
        };
        assert!(free_nominal > 1_000_000, "plenty of nominal room");
        // A 64K-element array needs a 512KB contiguous block: only the
        // bump frontier can host it, and the fragmented arena may not —
        // either way it must not corrupt anything.
        if let Ok(big) = h.alloc_array(arr, 64 << 10) {
            assert_eq!(big.space(), SpaceId::Old);
        } // Err is a legitimate fragmentation OOM

        // And the small survivors are intact either way.
        assert_eq!(h.live_count(small), 220);
    }

    #[test]
    fn mark_sweep_remembered_set_stays_consistent() {
        // After a mark-sweep full GC, an old object assigned a young ref
        // must be remembered again and survive the next minor GC.
        let mut h = ms_heap();
        let holder = h.define_class(ClassBuilder::new("H").field("x", FieldKind::Ref));
        let leaf = h.define_class(ClassBuilder::new("L").field("v", FieldKind::I64));
        let hobj = h.alloc(holder).unwrap();
        let root = h.add_root(hobj);
        h.full_gc(); // tenure the holder via evacuation
        let hobj = h.root_ref(root);
        assert_eq!(hobj.space(), SpaceId::Old);
        let young = h.alloc(leaf).unwrap();
        h.write_i64(young, 0, 41);
        h.write_ref(hobj, 0, young);
        h.minor_gc();
        let v = h.read_ref(h.root_ref(root), 0);
        assert_eq!(h.read_i64(v, 0), 41);
    }

    #[test]
    fn oom_when_live_set_exceeds_old_gen() {
        let mut h = Heap::new(HeapConfig::with_total(512 << 10));
        let arr = h.define_array_class("long[]", FieldKind::I64);
        let mut roots = Vec::new();
        let mut oom = false;
        for _ in 0..100 {
            match h.alloc_array(arr, 8 << 10) {
                Ok(a) => roots.push(h.add_root(a)),
                Err(_) => {
                    oom = true;
                    break;
                }
            }
        }
        assert!(oom, "allocating live data beyond capacity must OOM");
        // Dropping roots lets a full collection reclaim the space.
        for r in roots {
            h.remove_root(r);
        }
        h.full_gc();
        assert!(h.alloc_array(arr, 8 << 10).is_ok());
    }

    /// A heap on the concurrent mark-sweep plan (CMS shape).
    fn conc_heap() -> Heap {
        let h = Heap::new(HeapConfig::small().with_plan(GcPlanKind::MarkSweep));
        assert!(h.config().concurrent, "marksweep is concurrent by default");
        h
    }

    /// Build a rooted linked list of `n` nodes plus `n` unrooted garbage
    /// nodes; returns the node class and per-node roots.
    fn build_rooted_nodes(h: &mut Heap, n: i64) -> (ClassId, Vec<crate::RootId>) {
        let node = h.define_class(
            ClassBuilder::new("Node").field("v", FieldKind::I64).field("next", FieldKind::Ref),
        );
        let mut roots = Vec::new();
        for i in 0..n {
            let o = h.alloc(node).unwrap();
            h.write_i64(o, 0, i);
            roots.push(h.add_root(o));
            h.alloc(node).unwrap(); // garbage
        }
        (node, roots)
    }

    #[test]
    fn parallel_mark_is_schedule_independent() {
        let mut h = heap();
        let (node, roots) = build_rooted_nodes(&mut h, 500);
        // Chain the rooted nodes so marking has real pointer-chasing depth.
        for w in roots.windows(2) {
            let a = h.root_ref(w[0]);
            let b = h.root_ref(w[1]);
            h.write_ref(a, 1, b);
        }
        let root_refs: Vec<ObjRef> = roots.iter().map(|&r| h.root_ref(r)).collect();
        let m1 = mark_heap(&h.spaces, &h.registry, &root_refs, 1, None).unwrap();
        assert_eq!(m1.objects_marked, 500, "exactly the rooted nodes are live");
        for threads in [2, 4, 8] {
            let mt = mark_heap(&h.spaces, &h.registry, &root_refs, threads, None).unwrap();
            assert_eq!(mt.objects_marked, m1.objects_marked, "{threads}-thread count");
            for s in 0..4 {
                assert_eq!(
                    mt.marks[s].iter_marked().collect::<Vec<_>>(),
                    m1.marks[s].iter_marked().collect::<Vec<_>>(),
                    "{threads}-thread mark set for space {s}"
                );
            }
        }
        drop(root_refs);
        let _ = node;
    }

    #[test]
    fn every_plan_preserves_shared_graphs() {
        for plan in GcPlanKind::ALL {
            let mut h = Heap::new(HeapConfig::small().with_plan(plan).with_concurrent(false));
            let pair = h.define_class(
                ClassBuilder::new("Pair").field("a", FieldKind::Ref).field("b", FieldKind::Ref),
            );
            let leaf = h.define_class(ClassBuilder::new("Leaf").field("v", FieldKind::I64));
            let l = h.alloc(leaf).unwrap();
            h.write_i64(l, 0, 7);
            let s = h.push_stack(l);
            let p = h.alloc(pair).unwrap();
            h.write_ref(p, 0, h.stack_ref(s));
            h.write_ref(p, 1, h.stack_ref(s)); // shared leaf
            h.truncate_stack(s);
            let root = h.add_root(p);
            for _ in 0..500 {
                h.alloc(leaf).unwrap(); // garbage
            }
            h.full_gc();
            h.full_gc(); // stable on an already-collected heap
            let p = h.root_ref(root);
            assert_eq!(h.read_ref(p, 0), h.read_ref(p, 1), "plan {plan}: sharing preserved");
            assert_eq!(h.read_i64(h.read_ref(p, 0), 0), 7, "plan {plan}");
            assert_eq!(h.live_count(leaf), 1, "plan {plan}: garbage collected");
        }
    }

    #[test]
    fn semispace_collects_whole_heap_on_eden_exhaustion() {
        let mut h = Heap::new(HeapConfig::small().with_plan(GcPlanKind::SemiSpace));
        let c = h.define_class(ClassBuilder::new("T").field("v", FieldKind::I64));
        let keep = h.alloc(c).unwrap();
        h.write_i64(keep, 0, 9);
        let root = h.add_root(keep);
        for _ in 0..50_000 {
            h.alloc(c).unwrap();
        }
        assert_eq!(h.stats().minor_collections, 0, "semispace never runs minor collections");
        assert!(h.stats().full_collections > 0, "eden exhaustion ran whole-heap collections");
        h.full_gc(); // garbage allocated since the last exhaustion dies now
        assert_eq!(h.live_count(c), 1);
        assert_eq!(h.read_i64(h.root_ref(root), 0), 9);
    }

    #[test]
    fn immix_coarse_sweep_keeps_small_holes_off_the_free_list() {
        let mut h =
            Heap::new(HeapConfig::small().with_plan(GcPlanKind::Immix).with_concurrent(false));
        let c = h.define_class(ClassBuilder::new("K").field("v", FieldKind::I64));
        let mut roots = Vec::new();
        for i in 0..100 {
            let o = h.alloc(c).unwrap();
            h.write_i64(o, 0, i);
            roots.push(h.add_root(o));
        }
        h.full_gc(); // tenure all, in allocation order
        let used = h.old_used_bytes();
        for (i, r) in roots.iter().enumerate() {
            if i % 2 == 0 {
                h.remove_root(*r);
            }
        }
        h.full_gc(); // dead half becomes 3-word holes, below the 64-word floor
        assert!(h.old_used_bytes() < used, "sweep reclaims nominal bytes");
        assert_eq!(
            h.free_block_count(),
            0,
            "sub-line holes stay out of the free list (fragmentation)"
        );
        for (i, r) in roots.iter().enumerate() {
            if i % 2 == 1 {
                assert_eq!(h.read_i64(h.root_ref(*r), 0), i as i64);
            }
        }
    }

    #[test]
    fn concurrent_marker_runs_while_mutator_allocates() {
        let mut h = conc_heap();
        let (node, roots) = build_rooted_nodes(&mut h, 200);
        h.full_gc(); // tenure the rooted nodes
        assert_eq!(h.live_count(node), 200);

        // Park the marker pre-trace so the marking phase is provably open
        // while the mutator makes progress.
        h.hold_concurrent_marker(true);
        assert!(h.start_concurrent_cycle());
        assert!(!h.start_concurrent_cycle(), "one cycle at a time");
        assert!(h.concurrent_marking_active());
        let tmp = h.define_class(ClassBuilder::new("Tmp").field("v", FieldKind::I64));
        for _ in 0..20_000 {
            h.alloc(tmp).unwrap(); // mutator progress during the open phase
        }
        assert!(
            h.concurrent_marking_active(),
            "marking phase still open after mutator allocation — a real racing thread, \
             not a pause model"
        );

        h.hold_concurrent_marker(false);
        while h.concurrent_marking_active() {
            if !h.poll_gc() {
                std::thread::yield_now();
            }
        }
        assert_eq!(h.stats().concurrent_cycles, 1);
        assert_eq!(h.stats().concurrent_aborts, 0);
        assert!(
            h.stats().concurrent_mark_time > Duration::ZERO,
            "overlap is measured, not modelled"
        );
        // The cycle's remark swept nothing live: the rooted data survived.
        assert_eq!(h.live_count(node), 200);
        for (i, r) in roots.iter().enumerate() {
            assert_eq!(h.read_i64(h.root_ref(*r), 0), i as i64);
        }
    }

    #[test]
    fn satb_race_allocation_during_marking_keeps_census_consistent() {
        let mut h = conc_heap();
        let (node, roots) = build_rooted_nodes(&mut h, 400);
        h.full_gc(); // tenure
        assert_eq!(h.live_count(node), 400);

        // A real racing cycle: the marker traces while the mutator
        // allocates, promotes (dirty log), and drops roots (SATB floating
        // garbage).
        assert!(h.start_concurrent_cycle());
        let mut new_roots = Vec::new();
        for i in 0..50 {
            let o = h.alloc(node).unwrap();
            h.write_i64(o, 0, 1000 + i);
            new_roots.push(h.add_root(o));
        }
        for (i, r) in roots.iter().enumerate() {
            if i % 2 == 0 {
                h.remove_root(*r); // dies mid-cycle
            }
        }
        let tmp = h.define_class(ClassBuilder::new("Tmp").field("v", FieldKind::I64));
        let mut spins = 0u64;
        while h.concurrent_marking_active() {
            for _ in 0..500 {
                h.alloc(tmp).unwrap(); // churn: minor GCs + promotions race the marker
            }
            h.poll_gc();
            spins += 1;
            assert!(spins < 100_000, "concurrent cycle never finished");
        }
        assert_eq!(h.stats().concurrent_cycles, 1);
        assert_eq!(h.stats().concurrent_aborts, 0);
        // SATB keeps the snapshot's live set: nothing live was lost, and
        // mid-cycle deaths survive as floating garbage at worst.
        assert!(h.live_count(node) >= 250, "lost objects: census {}", h.live_count(node));
        // The next stop-the-world collection retires the floating garbage.
        h.full_gc();
        assert_eq!(h.live_count(node), 250);
        for (i, r) in roots.iter().enumerate() {
            if i % 2 == 1 {
                assert_eq!(h.read_i64(h.root_ref(*r), 0), i as i64);
            }
        }
        for (i, r) in new_roots.iter().enumerate() {
            assert_eq!(h.read_i64(h.root_ref(*r), 0), 1000 + i as i64);
        }
    }

    #[test]
    fn full_gc_aborts_concurrent_cycle() {
        let mut h = conc_heap();
        let (node, _roots) = build_rooted_nodes(&mut h, 100);
        h.full_gc();
        h.hold_concurrent_marker(true);
        assert!(h.start_concurrent_cycle());
        assert!(h.concurrent_marking_active());
        // Direct full collection = concurrent-mode failure: the cycle is
        // cancelled and the collection runs stop-the-world.
        h.full_gc();
        assert!(!h.concurrent_marking_active());
        assert_eq!(h.stats().concurrent_aborts, 1);
        assert_eq!(h.stats().concurrent_cycles, 0);
        assert_eq!(h.live_count(node), 100);
        h.hold_concurrent_marker(false);
    }
}
