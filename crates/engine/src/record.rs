//! Record traits: one logical record, three physical representations.
//!
//! A workload type (the paper's UDT) implements:
//!
//! * [`HeapRecord`] — materialisation as an object graph on the simulated
//!   heap (Spark mode). `register` defines the JVM-layout classes once;
//!   `store` allocates the graph; `load` reads it back field by field.
//! * [`KryoRecord`] — Kryo-style tagged encoding (SparkSer mode).
//! * `deca_core::DecaRecord` — flat decomposed layout (Deca mode).
//!
//! The umbrella trait [`Record`] ties them together for the cache manager.
//!
//! A `String`'s `char[]` is written and read in bulk
//! ([`Heap::char_array_write`] / [`Heap::char_array_units`]), as the JVM's
//! `String` intrinsics and `System.arraycopy` move it: the heap allocations
//! and their sizes are the JVM's, but no per-element interpretation or
//! intermediate `Vec<u16>` sits between the record and its heap graph.

use deca_core::DecaRecord;
use deca_heap::{Heap, ObjRef, OomError};

use crate::serde_sim::{read_varint, write_varint};

/// Heap (Spark-mode) representation of a record.
pub trait HeapRecord: Sized {
    /// App-defined bundle of `ClassId`s for this record's object graph.
    type Classes: Copy + Send;

    /// Register the record's classes on a fresh heap.
    fn register(heap: &mut Heap) -> Self::Classes;

    /// Allocate the record's object graph; the returned root object is NOT
    /// yet rooted — callers must root it (stack or slot) before the next
    /// allocation.
    fn store(&self, heap: &mut Heap, cls: &Self::Classes) -> Result<ObjRef, OomError>;

    /// Read the record back from its object graph (field-by-field heap
    /// reads — the real cost of Spark-mode iteration).
    fn load(heap: &Heap, cls: &Self::Classes, obj: ObjRef) -> Self;

    /// Nominal heap bytes of one stored record's graph (for cache
    /// accounting). Includes headers and references, unlike `data_size`.
    fn heap_size(&self) -> usize;
}

/// Kryo-style (SparkSer-mode) representation.
pub trait KryoRecord: Sized {
    fn kryo_encode(&self, out: &mut Vec<u8>);
    fn kryo_decode(buf: &[u8], pos: &mut usize) -> Self;
}

/// A record usable in all three execution modes.
pub trait Record: DecaRecord + HeapRecord + KryoRecord + Clone + Send {}

impl<T: DecaRecord + HeapRecord + KryoRecord + Clone + Send> Record for T {}

/// Look up a class by name, defining it only if absent. `register` must be
/// idempotent: under the cluster driver and [`crate::DecaServer`] every task
/// re-registers on a long-lived executor, and recomputes/samples must see
/// the same `ClassId` the cached objects were allocated with (duplicate
/// definitions would also leak registry entries across jobs on a server).
pub fn class_or_define(
    heap: &mut Heap,
    name: &str,
    build: impl FnOnce() -> deca_heap::ClassBuilder,
) -> deca_heap::ClassId {
    match heap.registry().by_name(name) {
        Some(c) => c,
        None => heap.define_class(build()),
    }
}

// ---------------------------------------------------------------------
// implementations for pair-of-scalars records (WordCount's Tuple2, SQL
// projections, shuffle messages)
// ---------------------------------------------------------------------

/// Classes of a boxed pair: `Tuple2 { _1: ref, _2: ref }` with boxed
/// primitive fields, as Scala generics produce on the JVM (the auto-boxing
/// cost §6.5 mentions).
#[derive(Copy, Clone)]
pub struct PairClasses {
    pub tuple: deca_heap::ClassId,
    pub box_a: deca_heap::ClassId,
    pub box_b: deca_heap::ClassId,
}

macro_rules! scalar_pair_record {
    ($a:ty, $b:ty, $an:literal, $bn:literal) => {
        impl HeapRecord for ($a, $b) {
            type Classes = PairClasses;

            fn register(heap: &mut Heap) -> PairClasses {
                use deca_heap::{ClassBuilder, FieldKind};
                let tuple = class_or_define(heap, "Tuple2", || {
                    ClassBuilder::new("Tuple2")
                        .field("_1", FieldKind::Ref)
                        .field("_2", FieldKind::Ref)
                });
                let box_a = class_or_define(heap, $an, || {
                    ClassBuilder::new($an).field("value", FieldKind::I64)
                });
                let box_b = class_or_define(heap, $bn, || {
                    ClassBuilder::new($bn).field("value", FieldKind::I64)
                });
                PairClasses { tuple, box_a, box_b }
            }

            fn store(&self, heap: &mut Heap, cls: &PairClasses) -> Result<ObjRef, OomError> {
                let a = heap.alloc(cls.box_a)?;
                heap.write_i64(a, 0, self.0 as i64);
                let sa = heap.push_stack(a);
                let b = heap.alloc(cls.box_b)?;
                heap.write_i64(b, 0, self.1 as i64);
                let sb = heap.push_stack(b);
                let t = heap.alloc(cls.tuple)?;
                heap.write_ref(t, 0, heap.stack_ref(sa));
                heap.write_ref(t, 1, heap.stack_ref(sb));
                heap.truncate_stack(sa.min(sb));
                Ok(t)
            }

            fn load(heap: &Heap, _cls: &PairClasses, obj: ObjRef) -> Self {
                let a = heap.read_ref(obj, 0);
                let b = heap.read_ref(obj, 1);
                (heap.read_i64(a, 0) as $a, heap.read_i64(b, 0) as $b)
            }

            fn heap_size(&self) -> usize {
                // Tuple2(16+16) + two boxed scalars (16+8 each)
                32 + 24 + 24
            }
        }

        impl KryoRecord for ($a, $b) {
            fn kryo_encode(&self, out: &mut Vec<u8>) {
                write_varint(zigzag(self.0 as i64), out);
                write_varint(zigzag(self.1 as i64), out);
            }

            fn kryo_decode(buf: &[u8], pos: &mut usize) -> Self {
                let a = unzigzag(read_varint(buf, pos)) as $a;
                let b = unzigzag(read_varint(buf, pos)) as $b;
                (a, b)
            }
        }
    };
}

scalar_pair_record!(i64, i64, "java.lang.Long", "java.lang.Long");

/// `(i64, f64)` pairs (rank messages in PageRank; SQL aggregates).
impl HeapRecord for (i64, f64) {
    type Classes = PairClasses;

    fn register(heap: &mut Heap) -> PairClasses {
        use deca_heap::{ClassBuilder, FieldKind};
        let tuple = class_or_define(heap, "Tuple2", || {
            ClassBuilder::new("Tuple2").field("_1", FieldKind::Ref).field("_2", FieldKind::Ref)
        });
        let box_a = class_or_define(heap, "java.lang.Long", || {
            ClassBuilder::new("java.lang.Long").field("value", FieldKind::I64)
        });
        let box_b = class_or_define(heap, "java.lang.Double", || {
            ClassBuilder::new("java.lang.Double").field("value", FieldKind::F64)
        });
        PairClasses { tuple, box_a, box_b }
    }

    fn store(&self, heap: &mut Heap, cls: &PairClasses) -> Result<ObjRef, OomError> {
        let a = heap.alloc(cls.box_a)?;
        heap.write_i64(a, 0, self.0);
        let sa = heap.push_stack(a);
        let b = heap.alloc(cls.box_b)?;
        heap.write_f64(b, 0, self.1);
        let sb = heap.push_stack(b);
        let t = heap.alloc(cls.tuple)?;
        heap.write_ref(t, 0, heap.stack_ref(sa));
        heap.write_ref(t, 1, heap.stack_ref(sb));
        heap.truncate_stack(sa.min(sb));
        Ok(t)
    }

    fn load(heap: &Heap, _cls: &PairClasses, obj: ObjRef) -> Self {
        let a = heap.read_ref(obj, 0);
        let b = heap.read_ref(obj, 1);
        (heap.read_i64(a, 0), heap.read_f64(b, 0))
    }

    fn heap_size(&self) -> usize {
        32 + 24 + 24
    }
}

impl KryoRecord for (i64, f64) {
    fn kryo_encode(&self, out: &mut Vec<u8>) {
        write_varint(zigzag(self.0), out);
        out.extend_from_slice(&self.1.to_le_bytes());
    }

    fn kryo_decode(buf: &[u8], pos: &mut usize) -> Self {
        let a = unzigzag(read_varint(buf, pos));
        let b = f64::from_le_bytes(buf[*pos..*pos + 8].try_into().expect("8 bytes"));
        *pos += 8;
        (a, b)
    }
}

/// `(f64, i64)` pairs (feature/index pairs; session examples).
impl HeapRecord for (f64, i64) {
    type Classes = PairClasses;

    fn register(heap: &mut Heap) -> PairClasses {
        use deca_heap::{ClassBuilder, FieldKind};
        let tuple = class_or_define(heap, "Tuple2", || {
            ClassBuilder::new("Tuple2").field("_1", FieldKind::Ref).field("_2", FieldKind::Ref)
        });
        let box_a = class_or_define(heap, "java.lang.Double", || {
            ClassBuilder::new("java.lang.Double").field("value", FieldKind::F64)
        });
        let box_b = class_or_define(heap, "java.lang.Long", || {
            ClassBuilder::new("java.lang.Long").field("value", FieldKind::I64)
        });
        PairClasses { tuple, box_a, box_b }
    }

    fn store(&self, heap: &mut Heap, cls: &PairClasses) -> Result<ObjRef, OomError> {
        let a = heap.alloc(cls.box_a)?;
        heap.write_f64(a, 0, self.0);
        let sa = heap.push_stack(a);
        let b = heap.alloc(cls.box_b)?;
        heap.write_i64(b, 0, self.1);
        let sb = heap.push_stack(b);
        let t = heap.alloc(cls.tuple)?;
        heap.write_ref(t, 0, heap.stack_ref(sa));
        heap.write_ref(t, 1, heap.stack_ref(sb));
        heap.truncate_stack(sa.min(sb));
        Ok(t)
    }

    fn load(heap: &Heap, _cls: &PairClasses, obj: ObjRef) -> Self {
        let a = heap.read_ref(obj, 0);
        let b = heap.read_ref(obj, 1);
        (heap.read_f64(a, 0), heap.read_i64(b, 0))
    }

    fn heap_size(&self) -> usize {
        32 + 24 + 24
    }
}

impl KryoRecord for (f64, i64) {
    fn kryo_encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0.to_le_bytes());
        write_varint(zigzag(self.1), out);
    }

    fn kryo_decode(buf: &[u8], pos: &mut usize) -> Self {
        let a = f64::from_le_bytes(buf[*pos..*pos + 8].try_into().expect("8 bytes"));
        *pos += 8;
        let b = unzigzag(read_varint(buf, pos));
        (a, b)
    }
}

/// `(i64, Vec<f64>)` pairs (keyed vectors): heap graph is a Tuple2 with a
/// boxed key and a raw double[] value.
impl HeapRecord for (i64, Vec<f64>) {
    type Classes = PairClasses;

    fn register(heap: &mut Heap) -> PairClasses {
        use deca_heap::{ClassBuilder, FieldKind};
        let tuple = class_or_define(heap, "Tuple2", || {
            ClassBuilder::new("Tuple2").field("_1", FieldKind::Ref).field("_2", FieldKind::Ref)
        });
        let box_a = class_or_define(heap, "java.lang.Long", || {
            ClassBuilder::new("java.lang.Long").field("value", FieldKind::I64)
        });
        let box_b = match heap.registry().by_name("double[]") {
            Some(c) => c,
            None => heap.define_array_class("double[]", FieldKind::F64),
        };
        PairClasses { tuple, box_a, box_b }
    }

    fn store(&self, heap: &mut Heap, cls: &PairClasses) -> Result<ObjRef, OomError> {
        let a = heap.alloc(cls.box_a)?;
        heap.write_i64(a, 0, self.0);
        let sa = heap.push_stack(a);
        let arr = heap.alloc_array(cls.box_b, self.1.len())?;
        for (i, v) in self.1.iter().enumerate() {
            heap.array_set_f64(arr, i, *v);
        }
        let sb = heap.push_stack(arr);
        let t = heap.alloc(cls.tuple)?;
        heap.write_ref(t, 0, heap.stack_ref(sa));
        heap.write_ref(t, 1, heap.stack_ref(sb));
        heap.truncate_stack(sa.min(sb));
        Ok(t)
    }

    fn load(heap: &Heap, _cls: &PairClasses, obj: ObjRef) -> Self {
        let a = heap.read_ref(obj, 0);
        let b = heap.read_ref(obj, 1);
        let n = heap.array_len(b);
        let v = (0..n).map(|i| heap.array_get_f64(b, i)).collect();
        (heap.read_i64(a, 0), v)
    }

    fn heap_size(&self) -> usize {
        32 + 24 + (16 + 8 * self.1.len()).div_ceil(8) * 8
    }
}

impl KryoRecord for (i64, Vec<f64>) {
    fn kryo_encode(&self, out: &mut Vec<u8>) {
        write_varint(zigzag(self.0), out);
        write_varint(self.1.len() as u64, out);
        for v in &self.1 {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn kryo_decode(buf: &[u8], pos: &mut usize) -> Self {
        let k = unzigzag(read_varint(buf, pos));
        let n = read_varint(buf, pos) as usize;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(f64::from_le_bytes(buf[*pos..*pos + 8].try_into().expect("8 bytes")));
            *pos += 8;
        }
        (k, v)
    }
}

/// Boxed scalar classes (a single `java.lang.*` box).
#[derive(Copy, Clone)]
pub struct BoxClasses {
    pub class: deca_heap::ClassId,
}

/// A plain `i64` record: on the heap it is a boxed `java.lang.Long` (the
/// auto-boxing cost of generic containers, §6.5).
impl HeapRecord for i64 {
    type Classes = BoxClasses;

    fn register(heap: &mut Heap) -> BoxClasses {
        use deca_heap::{ClassBuilder, FieldKind};
        let class = match heap.registry().by_name("java.lang.Long") {
            Some(c) => c,
            None => heap
                .define_class(ClassBuilder::new("java.lang.Long").field("value", FieldKind::I64)),
        };
        BoxClasses { class }
    }

    fn store(&self, heap: &mut Heap, cls: &BoxClasses) -> Result<ObjRef, OomError> {
        let o = heap.alloc(cls.class)?;
        heap.write_i64(o, 0, *self);
        Ok(o)
    }

    fn load(heap: &Heap, _cls: &BoxClasses, obj: ObjRef) -> Self {
        heap.read_i64(obj, 0)
    }

    fn heap_size(&self) -> usize {
        24
    }
}

impl KryoRecord for i64 {
    fn kryo_encode(&self, out: &mut Vec<u8>) {
        write_varint(zigzag(*self), out);
    }

    fn kryo_decode(buf: &[u8], pos: &mut usize) -> Self {
        unzigzag(read_varint(buf, pos))
    }
}

/// A plain `f64` record: boxed `java.lang.Double` on the heap.
impl HeapRecord for f64 {
    type Classes = BoxClasses;

    fn register(heap: &mut Heap) -> BoxClasses {
        use deca_heap::{ClassBuilder, FieldKind};
        let class = match heap.registry().by_name("java.lang.Double") {
            Some(c) => c,
            None => heap
                .define_class(ClassBuilder::new("java.lang.Double").field("value", FieldKind::F64)),
        };
        BoxClasses { class }
    }

    fn store(&self, heap: &mut Heap, cls: &BoxClasses) -> Result<ObjRef, OomError> {
        let o = heap.alloc(cls.class)?;
        heap.write_f64(o, 0, *self);
        Ok(o)
    }

    fn load(heap: &Heap, _cls: &BoxClasses, obj: ObjRef) -> Self {
        heap.read_f64(obj, 0)
    }

    fn heap_size(&self) -> usize {
        24
    }
}

impl KryoRecord for f64 {
    fn kryo_encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn kryo_decode(buf: &[u8], pos: &mut usize) -> Self {
        let v = f64::from_le_bytes(buf[*pos..*pos + 8].try_into().expect("8 bytes"));
        *pos += 8;
        v
    }
}

/// Heap classes of a `java.lang.String`: the String object plus its
/// backing `char[]` (pre-compact-strings JVM layout, as in the paper's
/// JDK 1.7 setup).
#[derive(Copy, Clone)]
pub struct StringClasses {
    pub string: deca_heap::ClassId,
    pub char_array: deca_heap::ClassId,
}

impl HeapRecord for String {
    type Classes = StringClasses;

    fn register(heap: &mut Heap) -> StringClasses {
        use deca_heap::{ClassBuilder, FieldKind};
        let string = match heap.registry().by_name("java.lang.String") {
            Some(c) => c,
            None => heap.define_class(
                ClassBuilder::new("java.lang.String")
                    .field("value", FieldKind::Ref)
                    .field("hash", FieldKind::I32),
            ),
        };
        let char_array = match heap.registry().by_name("char[]") {
            Some(c) => c,
            None => heap.define_array_class("char[]", FieldKind::Char),
        };
        StringClasses { string, char_array }
    }

    fn store(&self, heap: &mut Heap, cls: &StringClasses) -> Result<ObjRef, OomError> {
        store_str(heap, cls, self)
    }

    fn load(heap: &Heap, _cls: &StringClasses, obj: ObjRef) -> Self {
        let mut s = String::new();
        load_str_into(heap, obj, &mut s);
        s
    }

    fn heap_size(&self) -> usize {
        let n = self.encode_utf16().count();
        // String 16+8+4 -> 32; char[n] 16+2n aligned
        32 + (16 + 2 * n).div_ceil(8) * 8
    }
}

/// Store `s` as a heap `java.lang.String` + `char[]` graph, as
/// [`HeapRecord::store`] does for a `String`, from borrowed text: a kernel
/// that reads its tokens out of a shared buffer stores each without an
/// owned copy on the Rust side.
pub fn store_str(heap: &mut Heap, cls: &StringClasses, s: &str) -> Result<ObjRef, OomError> {
    // One UTF-16 code unit per char slot; an astral character takes two.
    let arr = heap.alloc_array(cls.char_array, s.encode_utf16().count())?;
    heap.char_array_write(arr, s.encode_utf16());
    let sa = heap.push_stack(arr);
    let obj = heap.alloc(cls.string)?;
    heap.write_ref(obj, 0, heap.stack_ref(sa));
    heap.truncate_stack(sa);
    Ok(obj)
}

/// Decode a heap `java.lang.String` into `out`, replacing its content: the
/// `String` object's `char[]` read in bulk (see [`Heap::char_array_units`]).
/// A kernel that decodes one key per record reuses one `out` buffer, so
/// the Rust side allocates nothing per record.
pub fn load_str_into(heap: &Heap, obj: ObjRef, out: &mut String) {
    let arr = heap.read_ref(obj, 0);
    out.clear();
    out.extend(char::decode_utf16(heap.char_array_units(arr)).map(|c| c.expect("valid UTF-16")));
}

impl KryoRecord for String {
    fn kryo_encode(&self, out: &mut Vec<u8>) {
        write_varint(self.len() as u64, out);
        out.extend_from_slice(self.as_bytes());
    }

    fn kryo_decode(buf: &[u8], pos: &mut usize) -> Self {
        kryo_decode_str(buf, pos).to_owned()
    }
}

/// A Kryo-encoded string (varint byte length, then UTF-8) borrowed from
/// `buf`.
pub(crate) fn kryo_decode_str<'b>(buf: &'b [u8], pos: &mut usize) -> &'b str {
    let n = read_varint(buf, pos) as usize;
    let s = std::str::from_utf8(&buf[*pos..*pos + n]).expect("valid UTF-8");
    *pos += n;
    s
}

/// Zigzag encoding for signed varints (as Kryo does).
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deca_heap::HeapConfig;

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 123_456_789] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn pair_heap_roundtrip() {
        let mut heap = Heap::new(HeapConfig::small());
        let cls = <(i64, i64)>::register(&mut heap);
        let rec = (42i64, -7i64);
        let obj = rec.store(&mut heap, &cls).unwrap();
        assert_eq!(<(i64, i64)>::load(&heap, &cls, obj), rec);
        // Three objects per record: the header/boxing bloat of Figure 2.
        assert_eq!(heap.object_count(), 3);
        assert_eq!(rec.heap_size(), 80);
    }

    #[test]
    fn pair_if64_heap_roundtrip() {
        let mut heap = Heap::new(HeapConfig::small());
        let cls = <(i64, f64)>::register(&mut heap);
        let rec = (5i64, 2.25f64);
        let obj = rec.store(&mut heap, &cls).unwrap();
        assert_eq!(<(i64, f64)>::load(&heap, &cls, obj), rec);
    }

    #[test]
    fn pair_kryo_roundtrip() {
        let recs = [(0i64, 0i64), (1, -1), (i64::MAX, i64::MIN)];
        for rec in recs {
            let mut buf = Vec::new();
            rec.kryo_encode(&mut buf);
            let mut pos = 0;
            assert_eq!(<(i64, i64)>::kryo_decode(&buf, &mut pos), rec);
            assert_eq!(pos, buf.len());
        }
    }
}
