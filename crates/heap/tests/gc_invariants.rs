//! Generational-collector invariants the engine layers rely on: objects
//! promote exactly at the tenuring threshold, the write barrier's
//! remembered set keeps old→young edges alive across minor collections,
//! and external (Deca page) accounting is untouched by any collector.

use deca_heap::{ClassBuilder, FieldKind, GcAlgorithm, Heap, HeapConfig, ObjRef};

fn node_class(heap: &mut Heap) -> deca_heap::ClassId {
    heap.define_class(
        ClassBuilder::new("Node").field("v", FieldKind::I64).field("next", FieldKind::Ref),
    )
}

#[test]
fn promotion_happens_exactly_at_the_tenuring_threshold() {
    let mut heap = Heap::new(HeapConfig::small());
    let cls = node_class(&mut heap);
    let obj = heap.alloc(cls).unwrap();
    heap.write_i64(obj, 0, 77);
    let root = heap.add_root(obj);

    let threshold = heap.tenuring_threshold() as usize;
    assert!(threshold >= 1);
    assert_eq!(heap.old_used_bytes(), 0, "a fresh allocation lives in eden");
    // The object ages by one per minor collection it survives; it must stay
    // in the young generation for every collection before the threshold...
    for survived in 1..threshold {
        heap.minor_gc();
        assert_eq!(heap.old_used_bytes(), 0, "still young after surviving {survived} minor GCs");
    }
    // ...and move to the old generation exactly at the threshold.
    heap.minor_gc();
    assert!(heap.old_used_bytes() > 0, "promoted on minor GC #{threshold}");
    assert_eq!(heap.read_i64(heap.root_ref(root), 0), 77, "payload survives promotion");

    // Once old, further minor collections leave it in place.
    let old_used = heap.old_used_bytes();
    heap.minor_gc();
    assert_eq!(heap.old_used_bytes(), old_used);
    assert_eq!(heap.read_i64(heap.root_ref(root), 0), 77);
}

/// Promote the object behind `root` into the old generation.
fn promote(heap: &mut Heap, root: deca_heap::RootId) -> ObjRef {
    for _ in 0..heap.tenuring_threshold() {
        heap.minor_gc();
    }
    assert!(heap.old_used_bytes() > 0, "setup: parent must be old");
    heap.root_ref(root)
}

#[test]
fn write_barrier_remembers_old_to_young_edges_across_minor_gc() {
    let mut heap = Heap::new(HeapConfig::small());
    let cls = node_class(&mut heap);

    let parent = heap.alloc(cls).unwrap();
    heap.write_i64(parent, 0, 1);
    let root = heap.add_root(parent);
    let parent = promote(&mut heap, root);

    // A young child reachable ONLY through the old parent: the minor GC
    // never scans the whole old generation, so only the write barrier's
    // remembered set can keep this edge alive.
    let child = heap.alloc(cls).unwrap();
    heap.write_i64(child, 0, 42);
    heap.write_ref(parent, 1, child);
    heap.minor_gc();

    let child = heap.read_ref(heap.root_ref(root), 1);
    assert!(!child.is_null(), "remembered set must root the old→young edge");
    assert_eq!(heap.read_i64(child, 0), 42);

    // The child itself eventually promotes and the edge stays intact.
    for _ in 0..heap.tenuring_threshold() {
        heap.minor_gc();
    }
    let child = heap.read_ref(heap.root_ref(root), 1);
    assert_eq!(heap.read_i64(child, 0), 42);
}

#[test]
fn overwritten_young_references_do_not_leak() {
    let mut heap = Heap::new(HeapConfig::small());
    let cls = node_class(&mut heap);

    let parent = heap.alloc(cls).unwrap();
    let root = heap.add_root(parent);
    let parent = promote(&mut heap, root);

    // Point the old parent at child a, then overwrite with child b: a is
    // garbage, and a remembered-set entry must not resurrect it.
    let a = heap.alloc(cls).unwrap();
    heap.write_i64(a, 0, 1);
    heap.write_ref(parent, 1, a);
    let b = heap.alloc(cls).unwrap();
    heap.write_i64(b, 0, 2);
    heap.write_ref(parent, 1, b);
    heap.minor_gc();

    assert_eq!(heap.object_count(), 2, "exactly the parent and child b survive");
    assert_eq!(heap.read_i64(heap.read_ref(heap.root_ref(root), 1), 0), 2);
}

#[test]
fn write_barrier_stays_correct_after_a_full_collection() {
    // A full GC rebuilds/clears the remembered set; barriers fired after it
    // must still protect new old→young edges.
    for kind in GcAlgorithm::ALL {
        let mut heap = Heap::new(HeapConfig::small().with_algorithm(kind).with_concurrent(false));
        let cls = node_class(&mut heap);

        let parent = heap.alloc(cls).unwrap();
        heap.write_i64(parent, 0, 9);
        let root = heap.add_root(parent);
        promote(&mut heap, root);
        heap.full_gc();

        let parent = heap.root_ref(root);
        let child = heap.alloc(cls).unwrap();
        heap.write_i64(child, 0, 1234);
        heap.write_ref(parent, 1, child);
        heap.minor_gc();

        let child = heap.read_ref(heap.root_ref(root), 1);
        assert!(!child.is_null(), "{kind:?}: edge written after full GC survives minor GC");
        assert_eq!(heap.read_i64(child, 0), 1234, "{kind:?}");
        assert_eq!(heap.read_i64(heap.root_ref(root), 0), 9, "{kind:?}");
    }
}

#[test]
fn external_accounting_is_exact_across_full_collections() {
    // Registered external pages are pseudo-objects with O(1) trace cost:
    // neither full-GC algorithm may change their byte accounting, and
    // unregistering is the only thing that releases them.
    for kind in GcAlgorithm::ALL {
        let mut heap =
            Heap::new(HeapConfig::with_total(8 << 20).with_algorithm(kind).with_concurrent(false));
        let a = heap.register_external(64 << 10).unwrap();
        let b = heap.register_external(32 << 10).unwrap();
        assert_eq!(heap.external_bytes(), 96 << 10, "{kind:?}");
        assert_eq!(heap.external_count(), 2, "{kind:?}");

        // Interleave with real object churn so the collection does work.
        let cls = node_class(&mut heap);
        let keep = heap.alloc(cls).unwrap();
        heap.write_i64(keep, 0, 5);
        let root = heap.add_root(keep);
        for _ in 0..100 {
            heap.alloc(cls).unwrap(); // garbage
        }
        heap.full_gc();
        assert_eq!(heap.external_bytes(), 96 << 10, "{kind:?}: collection keeps registered pages");
        assert_eq!(heap.external_count(), 2, "{kind:?}");
        assert_eq!(heap.object_count(), 1, "{kind:?}: garbage objects are gone");

        heap.unregister_external(a);
        assert_eq!(heap.external_bytes(), 32 << 10, "{kind:?}: release is immediate");
        heap.full_gc();
        assert_eq!(heap.external_bytes(), 32 << 10, "{kind:?}");
        assert_eq!(heap.external_count(), 1, "{kind:?}");
        assert_eq!(heap.read_i64(heap.root_ref(root), 0), 5, "{kind:?}");

        heap.unregister_external(b);
        heap.full_gc();
        assert_eq!(heap.external_bytes(), 0, "{kind:?}");
        assert_eq!(heap.external_count(), 0, "{kind:?}");
    }
}
