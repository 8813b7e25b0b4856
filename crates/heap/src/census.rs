//! Heap introspection: allocation census, reachability census, and class
//! histograms — the `jmap -histo` / JProfiler instrumentation the paper
//! uses for its lifetime figures (§6.1: "We periodically record the alive
//! number of objects and the GC time with JProfiler").
//!
//! Two notions of "present":
//!
//! * [`Heap::census`] (in `heap.rs`) counts objects *allocated and not yet
//!   collected* — what a sampling profiler sees between collections;
//! * [`Heap::reachable_census`] runs the collectors' mark from the roots
//!   and counts only objects that would survive a collection — separating
//!   the live set from floating garbage.

use crate::class::ClassId;
use crate::heap::Heap;
use crate::object::Header;
#[cfg(test)]
use crate::object::ObjRef;
use crate::space::SpaceId;

/// One row of a class histogram.
#[derive(Clone, Debug, PartialEq)]
pub struct ClassStat {
    pub class: ClassId,
    pub name: String,
    pub instances: usize,
    /// Nominal (JVM-accounted) bytes.
    pub bytes: usize,
}

impl Heap {
    /// Class histogram of all objects currently allocated (live or not),
    /// sorted by bytes descending — `jmap -histo` style.
    pub fn class_histogram(&self) -> Vec<ClassStat> {
        let mut counts = vec![0usize; self.registry.len()];
        let mut bytes = vec![0usize; self.registry.len()];
        for sid in [SpaceId::Eden, SpaceId::S0, SpaceId::S1, SpaceId::Old] {
            let space = &self.spaces[sid as usize];
            let mut off = 0;
            while off < space.top() {
                let h = Header(space.words[off]);
                let class = ClassId(h.class_id());
                let desc = self.registry.get(class);
                let (slots, nominal) = match desc.array_elem() {
                    Some(elem) => {
                        let len = space.words[off + 1] as usize;
                        (Heap::array_slot_words(elem, len), desc.nominal_size(len))
                    }
                    None => (desc.slot_count(), desc.nominal_size(0)),
                };
                counts[class.index()] += 1;
                bytes[class.index()] += nominal;
                off += 2 + slots;
            }
        }
        let mut out: Vec<ClassStat> = counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| ClassStat {
                class: ClassId(i as u32),
                name: self.registry.get(ClassId(i as u32)).name().to_string(),
                instances: c,
                bytes: bytes[i],
            })
            .collect();
        out.sort_by_key(|c| std::cmp::Reverse(c.bytes));
        out
    }

    /// Count *reachable* instances per class via a real (non-moving) mark
    /// pass from the roots: the collectors' own mark, into bitmaps of its
    /// own, so the heap is left as it was. Returns counts indexed by class
    /// id.
    pub fn reachable_census(&mut self) -> Vec<usize> {
        let outcome = self.mark_all();
        let mut counts = vec![0usize; self.registry.len()];
        for space in [SpaceId::Eden, SpaceId::S0, SpaceId::S1, SpaceId::Old] {
            let words = &self.spaces[space as usize].words;
            for off in outcome.marks[space as usize].iter_marked() {
                counts[Header(words[off]).class_id() as usize] += 1;
            }
        }
        counts
    }

    /// Reachable instances of one class (see [`Heap::reachable_census`]).
    pub fn reachable_count(&mut self, class: ClassId) -> usize {
        self.reachable_census()[class.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::{ClassBuilder, FieldKind};
    use crate::heap::HeapConfig;

    #[test]
    fn histogram_orders_by_bytes() {
        let mut h = Heap::new(HeapConfig::small());
        let small = h.define_class(ClassBuilder::new("Small").field("x", FieldKind::I64));
        let arr = h.define_array_class("double[]", FieldKind::F64);
        for _ in 0..10 {
            h.alloc(small).unwrap();
        }
        h.alloc_array(arr, 1000).unwrap();
        let hist = h.class_histogram();
        assert_eq!(hist[0].name, "double[]");
        assert_eq!(hist[0].instances, 1);
        assert!(hist[0].bytes >= 8000);
        assert_eq!(hist[1].name, "Small");
        assert_eq!(hist[1].instances, 10);
        assert_eq!(hist[1].bytes, 240);
    }

    #[test]
    fn reachable_census_separates_garbage_from_live() {
        let mut h = Heap::new(HeapConfig::small());
        let node = h.define_class(
            ClassBuilder::new("Node").field("v", FieldKind::I64).field("next", FieldKind::Ref),
        );
        // 5 rooted, 20 garbage.
        let mut head = ObjRef::NULL;
        for i in 0..5 {
            head = h.scope(|h| {
                let s = h.push_stack(head);
                let n = h.alloc(node).unwrap();
                h.write_i64(n, 0, i);
                h.write_ref(n, 1, h.stack_ref(s));
                n
            });
        }
        let root = h.add_root(head);
        for _ in 0..20 {
            h.alloc(node).unwrap();
        }
        assert_eq!(h.live_count(node), 25, "allocation census counts garbage too");
        assert_eq!(h.reachable_count(node), 5, "mark pass counts only the live set");
        // Marks were cleared: a collection still works and values survive.
        h.full_gc();
        assert_eq!(h.live_count(node), 5);
        let mut cur = h.root_ref(root);
        let mut seen = 0;
        while !cur.is_null() {
            seen += 1;
            cur = h.read_ref(cur, 1);
        }
        assert_eq!(seen, 5);
    }

    #[test]
    fn reachable_census_handles_shared_and_cyclic_refs_via_marks() {
        let mut h = Heap::new(HeapConfig::small());
        let pair = h.define_class(
            ClassBuilder::new("Pair").field("a", FieldKind::Ref).field("b", FieldKind::Ref),
        );
        // A diamond: root -> p; p.a = q, p.b = q (shared).
        let q = h.alloc(pair).unwrap();
        let p = h.scope(|h| {
            let sq = h.push_stack(q);
            let p = h.alloc(pair).unwrap();
            h.write_ref(p, 0, h.stack_ref(sq));
            h.write_ref(p, 1, h.stack_ref(sq));
            p
        });
        h.add_root(p);
        assert_eq!(h.reachable_count(pair), 2, "shared object counted once");
        // Idempotent (marks cleared between runs).
        assert_eq!(h.reachable_count(pair), 2);
    }
}
