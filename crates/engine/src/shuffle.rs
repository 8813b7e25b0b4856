//! Spark-mode shuffle buffers: heap-object hash tables with eager
//! combining (§4.1–§4.2).
//!
//! * [`SparkHashShuffle`] models `reduceByKey`: Key objects stay intact in
//!   the buffer while **every combine allocates a new Value object**,
//!   killing the old one — the churn behind WordCount's GC saturation
//!   (Figure 8a).
//! * [`SparkGroupShuffle`] models `groupByKey`: per-key value lists grow
//!   like `ArrayBuffer`s, re-allocating doubled backing arrays whose old
//!   versions become garbage.
//!
//! Both grow as the JVM does, by copying the old `Object[]` into a doubled
//! one in bulk (`System.arraycopy`, [`Heap::array_copy_refs`]).
//!
//! Both keep all key/value object references reachable from a rooted heap
//! `Object[]`, so the collector must trace the whole buffer on every full
//! collection — exactly Spark's behaviour. The Deca counterparts live in
//! `deca_core::shuffle` and store raw bytes with in-place combining.
//!
//! The key → slot index is off-heap: a Rust-side std `HashMap` (a
//! SwissTable) over owned copies of the distinct keys, hashed with Deca's
//! own unkeyed word hash ([`deca_core::hash`]). The heap holds what the
//! collector traces — the rooted arrays and the record objects — so the
//! baseline pays the JVM's memory-management costs and not a slower probe
//! than the Deca buffers get.

use std::borrow::Borrow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;

use deca_core::hash::WordHashBuilder;
use deca_heap::{ClassId, Heap, ObjRef, OomError, RootId};

use crate::cache::object_array_class;
use crate::record::{HeapKey, Record};

/// A key as [`SparkHashShuffle::insert`] takes it. A borrowed key (`&str`
/// for a `String` buffer, `&i64` for an `i64` one) probes the index as it
/// is: a hit builds no owned key, and a miss copies it into the index
/// once. An owned `i64` is taken as well, since copying it costs nothing.
pub trait InsertKey<K> {
    /// What the index is probed with; the buffer's key borrows as it.
    type Probe: ?Sized + Hash + Eq;
    fn probe(&self) -> &Self::Probe;
    fn into_key(self) -> K;
}

impl<Q: ?Sized + ToOwned + Hash + Eq> InsertKey<Q::Owned> for &Q {
    type Probe = Q;

    fn probe(&self) -> &Q {
        self
    }

    fn into_key(self) -> Q::Owned {
        self.to_owned()
    }
}

impl InsertKey<i64> for i64 {
    type Probe = i64;

    fn probe(&self) -> &i64 {
        self
    }

    fn into_key(self) -> i64 {
        self
    }
}

/// Heap-object hash shuffle with eager aggregation (`reduceByKey`).
pub struct SparkHashShuffle<K: Record, V: Record> {
    classes_k: <K as crate::record::HeapRecord>::Classes,
    classes_v: V::Classes,
    /// The `Object[]` class, looked up once.
    array_class: ClassId,
    /// Rooted `Object[]` holding interleaved `[key, value]` references, in
    /// first-insertion order.
    array: RootId,
    capacity: usize,
    len: usize,
    /// Off-heap key → slot index (see the module docs).
    index: HashMap<K, usize, WordHashBuilder>,
}

impl<K, V> SparkHashShuffle<K, V>
where
    K: Record + HeapKey + Eq + Hash,
    V: Record,
{
    pub fn new(heap: &mut Heap) -> Result<Self, OomError> {
        let classes_k = <K as crate::record::HeapRecord>::register(heap);
        let classes_v = <V as crate::record::HeapRecord>::register(heap);
        let array_class = object_array_class(heap);
        let capacity = 1024;
        let arr = heap.alloc_array(array_class, capacity * 2)?;
        let array = heap.add_root(arr);
        Ok(SparkHashShuffle {
            classes_k,
            classes_v,
            array_class,
            array,
            capacity,
            len: 0,
            index: HashMap::default(),
        })
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert with eager combining. On a hit, the old Value object is
    /// loaded, combined, and a **new** Value object is allocated (the old
    /// becomes garbage — Spark's aggregate churn, §4.2 case 2). A miss
    /// stores the key's and the value's object graphs and indexes an owned
    /// copy of the key; it probes twice, once to miss and once to insert,
    /// which happens once per distinct key.
    pub fn insert<P>(
        &mut self,
        heap: &mut Heap,
        key: P,
        value: V,
        combine: impl FnOnce(V, V) -> V,
    ) -> Result<(), OomError>
    where
        P: InsertKey<K>,
        K: Borrow<P::Probe>,
    {
        if let Some(&slot) = self.index.get(key.probe()) {
            let arr = heap.root_ref(self.array);
            let old_obj = heap.array_get_ref(arr, slot * 2 + 1);
            let old = V::load(heap, &self.classes_v, old_obj);
            let combined = combine(old, value);
            let new_obj = combined.store(heap, &self.classes_v)?;
            let arr = heap.root_ref(self.array);
            heap.array_set_ref(arr, slot * 2 + 1, new_obj);
            return Ok(());
        }
        if self.len == self.capacity {
            self.grow(heap)?;
        }
        let slot = self.len;
        let key = key.into_key();
        let kobj = key.store(heap, &self.classes_k)?;
        heap.scope(|heap| {
            let ks = heap.push_stack(kobj);
            let vobj = value.store(heap, &self.classes_v)?;
            let arr = heap.root_ref(self.array);
            heap.array_set_ref(arr, slot * 2, heap.stack_ref(ks));
            heap.array_set_ref(arr, slot * 2 + 1, vobj);
            Ok(())
        })?;
        self.index.insert(key, slot);
        self.len += 1;
        Ok(())
    }

    fn grow(&mut self, heap: &mut Heap) -> Result<(), OomError> {
        let new_cap = self.capacity * 2;
        let new_arr = heap.alloc_array(self.array_class, new_cap * 2)?;
        let old_arr = heap.root_ref(self.array);
        heap.array_copy_refs(old_arr, 0, new_arr, 0, self.len * 2);
        heap.set_root(self.array, new_arr); // old array becomes garbage
        self.capacity = new_cap;
        Ok(())
    }

    /// The key and value classes, for a caller that serializes the pairs
    /// straight from their objects.
    pub fn classes(&self) -> (&K::Classes, &V::Classes) {
        (&self.classes_k, &self.classes_v)
    }

    /// Visit each pair in first-insertion order as its key's view, read
    /// off the heap through one reused buffer ([`HeapKey`]), and its key
    /// and value objects: the shuffle write serializes straight from
    /// them, with no owned key.
    pub fn for_each_object(&self, heap: &Heap, mut f: impl FnMut(K::View<'_>, ObjRef, ObjRef)) {
        let arr = heap.root_ref(self.array);
        let mut buf = K::Buf::default();
        for i in 0..self.len {
            let kobj = heap.array_get_ref(arr, i * 2);
            let vobj = heap.array_get_ref(arr, i * 2 + 1);
            f(K::view(heap, &self.classes_k, kobj, &mut buf), kobj, vobj);
        }
    }

    /// Visit each pair in first-insertion order as its key's view and its
    /// value.
    pub fn for_each(&self, heap: &Heap, mut f: impl FnMut(K::View<'_>, V)) {
        self.for_each_object(heap, |k, _, vobj| f(k, V::load(heap, &self.classes_v, vobj)));
    }

    /// Release the buffer: the root dies; space is reclaimed only by the
    /// next collection (Spark semantics — not lifetime-based).
    pub fn release(self, heap: &mut Heap) {
        heap.remove_root(self.array);
    }
}

/// Heap-object grouping shuffle (`groupByKey`): value lists as doubling
/// heap `Object[]`s.
pub struct SparkGroupShuffle<K, V: Record> {
    classes_v: V::Classes,
    /// The `Object[]` class of the value lists, looked up once.
    list_class: ClassId,
    /// slot -> rooted value-list array (list object refs) + length.
    lists: Vec<(RootId, usize, usize)>, // (root, len, cap)
    /// Off-heap key → slot index, as [`SparkHashShuffle`]'s.
    index: HashMap<K, usize, WordHashBuilder>,
}

impl<K, V> SparkGroupShuffle<K, V>
where
    K: Eq + Hash,
    V: Record,
{
    pub fn new(heap: &mut Heap) -> Self {
        let classes_v = <V as crate::record::HeapRecord>::register(heap);
        let list_class = object_array_class(heap);
        SparkGroupShuffle { classes_v, list_class, lists: Vec::new(), index: HashMap::default() }
    }

    #[cfg(test)]
    pub fn group_count(&self) -> usize {
        self.lists.len()
    }

    /// Append a value to its key's list (doubling growth; old arrays die).
    pub fn append(&mut self, heap: &mut Heap, key: K, value: V) -> Result<(), OomError> {
        let vobj = value.store(heap, &self.classes_v)?;
        heap.scope(|heap| {
            let vs = heap.push_stack(vobj);
            let slot = match self.index.entry(key) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    let arr = heap.alloc_array(self.list_class, 4)?;
                    let root = heap.add_root(arr);
                    self.lists.push((root, 0, 4));
                    *e.insert(self.lists.len() - 1)
                }
            };
            let (root, len, cap) = self.lists[slot];
            if len == cap {
                let bigger = heap.alloc_array(self.list_class, cap * 2)?;
                let old = heap.root_ref(root);
                heap.array_copy_refs(old, 0, bigger, 0, len);
                heap.set_root(root, bigger); // old list array becomes garbage
                self.lists[slot].2 = cap * 2;
            }
            let arr = heap.root_ref(root);
            heap.array_set_ref(arr, len, heap.stack_ref(vs));
            self.lists[slot].1 = len + 1;
            Ok(())
        })
    }

    /// Visit each group as `(key, values)` in index order: the same for
    /// the same appends in every process (the hash is unkeyed), but not
    /// first-append order.
    pub fn for_each_group(&self, heap: &Heap, mut f: impl FnMut(&K, Vec<V>)) {
        for (key, &slot) in &self.index {
            let (root, len, _) = self.lists[slot];
            let arr = heap.root_ref(root);
            let mut vals = Vec::with_capacity(len);
            for i in 0..len {
                let vobj = heap.array_get_ref(arr, i);
                vals.push(V::load(heap, &self.classes_v, vobj));
            }
            f(key, vals);
        }
    }

    /// Release the buffer: every list's root dies, as
    /// [`SparkHashShuffle::release`]'s does.
    pub fn release(self, heap: &mut Heap) {
        for (root, _, _) in self.lists {
            heap.remove_root(root);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deca_heap::HeapConfig;

    #[test]
    fn eager_aggregation_matches_fold() {
        let mut heap = Heap::new(HeapConfig::with_total(16 << 20));
        let mut buf: SparkHashShuffle<(i64, i64), (i64, i64)> = {
            // keys and values both (i64,i64) pairs for simplicity of the
            // Record impl; key identity is the first element.
            SparkHashShuffle::new(&mut heap).unwrap()
        };
        let mut expected: HashMap<i64, i64> = HashMap::new();
        for i in 0..20_000i64 {
            let k = i % 313;
            *expected.entry(k).or_insert(0) += i;
            buf.insert(&mut heap, &(k, 0), (i, 0), |a, b| (a.0 + b.0, 0)).unwrap();
        }
        assert_eq!(buf.len(), 313);
        buf.for_each(&heap, |k, v| assert_eq!(v.0, expected[&k.0], "aggregate for key {}", k.0));
        // Combines churned garbage: allocations far exceed live objects.
        assert!(heap.stats().objects_allocated > 20_000);
        buf.release(&mut heap);
        heap.full_gc();
        assert_eq!(heap.object_count(), 0, "released buffer is garbage");
    }

    #[test]
    fn grouping_collects_all_values() {
        let mut heap = Heap::new(HeapConfig::with_total(16 << 20));
        let mut buf: SparkGroupShuffle<i64, (i64, i64)> = SparkGroupShuffle::new(&mut heap);
        for i in 0..1000i64 {
            buf.append(&mut heap, i % 10, (i, i * 2)).unwrap();
        }
        assert_eq!(buf.group_count(), 10);
        let mut seen = 0;
        buf.for_each_group(&heap, |k, vals| {
            assert_eq!(vals.len(), 100);
            for v in vals {
                assert_eq!(v.0 % 10, *k);
                assert_eq!(v.1, v.0 * 2);
                seen += 1;
            }
        });
        assert_eq!(seen, 1000);
        buf.release(&mut heap);
    }

    #[test]
    fn growth_preserves_buffer_contents() {
        let mut heap = Heap::new(HeapConfig::with_total(32 << 20));
        let mut buf: SparkHashShuffle<(i64, i64), (i64, i64)> =
            SparkHashShuffle::new(&mut heap).unwrap();
        // More distinct keys than the initial capacity (1024).
        for k in 0..5000i64 {
            buf.insert(&mut heap, &(k, 0), (k * 7, 0), |a, _| a).unwrap();
        }
        assert_eq!(buf.len(), 5000);
        let mut count = 0;
        buf.for_each(&heap, |k, v| {
            assert_eq!(v.0, k.0 * 7);
            count += 1;
        });
        assert_eq!(count, 5000);
    }
}
