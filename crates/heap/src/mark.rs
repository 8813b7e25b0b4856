//! Marking: the one tracing loop every old-generation collection runs,
//! stop-the-world on the mutator's thread or concurrently on the marker's.
//!
//! Marks live in *side bitmaps* (one bit per arena word offset, per
//! space), not in object headers: marking therefore only **reads** the
//! arenas, which is what lets the concurrent marker trace a snapshot the
//! mutator no longer touches. The tracer is sequential: a work-stealing
//! pool measured no faster than it on two cores (DESIGN.md §2.1), so
//! there is one loop and one mark stack. The marked set is exactly the
//! reachable set, and every statistic derived from it follows.

use std::sync::atomic::{AtomicBool, Ordering};

use crate::class::{ClassId, ClassRegistry, FieldKind};
use crate::heap::HOLE_CLASS;
use crate::object::{Header, ObjRef};
use crate::space::Space;

/// How many objects the tracer visits between cancellation checks.
const CANCEL_CHECK_PERIOD: u64 = 256;

/// One space's mark bitmap: bit `i` set iff a live object's header starts
/// at word offset `i`.
pub(crate) struct MarkBits {
    bits: Vec<u64>,
}

impl MarkBits {
    pub(crate) fn new(word_top: usize) -> MarkBits {
        MarkBits { bits: vec![0; word_top.div_ceil(64)] }
    }

    /// Claim offset `off`; true iff this call newly set the bit.
    fn try_mark(&mut self, off: usize) -> bool {
        let (word, bit) = (&mut self.bits[off / 64], 1u64 << (off % 64));
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    pub(crate) fn is_marked(&self, off: usize) -> bool {
        self.bits.get(off / 64).is_some_and(|w| w & (1u64 << (off % 64)) != 0)
    }

    /// Set a bit after the trace (remark applies the dirty log; the bitmap
    /// grows as needed because the arena may have grown past the snapshot
    /// top).
    pub(crate) fn set(&mut self, off: usize) {
        if off / 64 >= self.bits.len() {
            self.bits.resize(off / 64 + 1, 0);
        }
        self.bits[off / 64] |= 1u64 << (off % 64);
    }

    /// Marked offsets in ascending (address) order — the deterministic
    /// iteration order the evacuate/sweep phases consume.
    pub(crate) fn iter_marked(&self) -> impl Iterator<Item = usize> + '_ {
        self.bits.iter().enumerate().flat_map(|(wi, &w)| {
            let mut word = w;
            std::iter::from_fn(move || {
                if word == 0 {
                    return None;
                }
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                Some(wi * 64 + bit)
            })
        })
    }
}

/// Result of a marking pass.
pub(crate) struct MarkOutcome {
    /// Per-space mark bitmaps, indexed by `SpaceId`.
    pub(crate) marks: [MarkBits; 4],
    /// Number of objects marked — exactly the reachable-object count.
    pub(crate) objects_marked: u64,
}

/// Trace the heap reachable from `roots`. Marking only reads
/// `spaces`/`registry`. Returns `None` if `cancel` was raised mid-trace
/// (the marked set is then incomplete and must be discarded).
pub(crate) fn mark_heap(
    spaces: &[Space; 4],
    registry: &ClassRegistry,
    roots: &[ObjRef],
    cancel: Option<&AtomicBool>,
) -> Option<MarkOutcome> {
    let mut marks = spaces.each_ref().map(|s| MarkBits::new(s.top()));
    let mut stack: Vec<ObjRef> = roots.iter().copied().filter(|r| !r.is_null()).collect();
    let mut objects_marked = 0u64;
    let mut since_check = 0u64;
    while let Some(r) = stack.pop() {
        since_check += 1;
        if since_check >= CANCEL_CHECK_PERIOD {
            since_check = 0;
            if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
                return None;
            }
        }
        if trace_object(spaces, registry, &mut marks, r, &mut stack) {
            objects_marked += 1;
        }
    }
    if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
        return None;
    }
    Some(MarkOutcome { marks, objects_marked })
}

/// Claim one object and push its non-null children. Returns false if the
/// object was already marked.
fn trace_object(
    spaces: &[Space; 4],
    registry: &ClassRegistry,
    marks: &mut [MarkBits; 4],
    r: ObjRef,
    stack: &mut Vec<ObjRef>,
) -> bool {
    debug_assert!(!r.is_null());
    let (space, off) = (r.space() as usize, r.offset());
    if !marks[space].try_mark(off) {
        return false;
    }
    let words = &spaces[space].words;
    let h = Header(words[off]);
    debug_assert_ne!(h.class_id(), HOLE_CLASS, "a reference can never point at a hole");
    debug_assert!(!h.is_forwarded(), "no forwarding pointers during marking");
    let desc = registry.get(ClassId(h.class_id()));
    let push = |i: usize| {
        let v = ObjRef::from_raw(words[off + 2 + i]);
        if !v.is_null() {
            stack.push(v);
        }
    };
    match desc.array_elem() {
        Some(FieldKind::Ref) => (0..words[off + 1] as usize).for_each(push),
        Some(_) => {}
        None => {
            let mask = desc.ref_mask();
            (0..desc.slot_count()).filter(|i| mask & (1u64 << i) != 0).for_each(push);
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markbits_claim_iterate_and_grow() {
        let mut m = MarkBits::new(200);
        assert!(m.try_mark(0));
        assert!(!m.try_mark(0), "second claim loses");
        assert!(m.try_mark(63));
        assert!(m.try_mark(64));
        assert!(m.try_mark(199));
        assert!(m.is_marked(63));
        assert!(!m.is_marked(1));
        assert!(!m.is_marked(100_000), "past-the-end offsets read unmarked");
        assert_eq!(m.iter_marked().collect::<Vec<_>>(), vec![0, 63, 64, 199]);
        m.set(512); // grows
        assert!(m.is_marked(512));
        assert_eq!(m.iter_marked().last(), Some(512));
    }
}
