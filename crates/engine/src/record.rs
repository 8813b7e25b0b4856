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
//! An app record is declared once with [`record!`](crate::record!), which
//! emits all three from one list of fields, plus the descriptor the
//! optimizer analyses; the primitives it stores are [`Scalar`]s. Boxed
//! scalars and their pairs ([`BoxedScalar`]) and `String` are implemented
//! here.
//!
//! A `String`'s `char[]` is written and read in bulk
//! ([`Heap::char_array_write`] / [`Heap::char_array_units`]), as the JVM's
//! `String` intrinsics and `System.arraycopy` move it: the heap allocations
//! and their sizes are the JVM's, but no per-element interpretation or
//! intermediate `Vec<u16>` sits between the record and its heap graph.

use std::marker::PhantomData;

use deca_core::DecaRecord;
use deca_heap::{ClassBuilder, ClassId, FieldKind, Heap, ObjRef, OomError};
use deca_udt::{FieldDecl, PrimKind, TypeRef, TypeRegistry, UdtDescriptor};

use crate::serde_sim::{read_varint, write_varint};

// The crates a `record!` declaration expands against.
#[doc(hidden)]
pub use {deca_core, deca_heap, deca_udt};

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
    build: impl FnOnce() -> ClassBuilder,
) -> ClassId {
    match heap.registry().by_name(name) {
        Some(c) => c,
        None => heap.define_class(build()),
    }
}

/// [`class_or_define`] for an array class of `elem`s.
pub fn array_class_or_define(heap: &mut Heap, name: &str, elem: FieldKind) -> ClassId {
    match heap.registry().by_name(name) {
        Some(c) => c,
        None => heap.define_array_class(name, elem),
    }
}

// ---------------------------------------------------------------------
// scalars: one primitive in each representation
// ---------------------------------------------------------------------

/// A primitive a record stores: how it sits in a heap object's field slot
/// or an array element, in page bytes (its little-endian [`DecaRecord`]
/// form) and in a declared record's Kryo bytes (an `f64` raw, an integer a
/// plain varint).
pub trait Scalar: DecaRecord + Copy {
    /// Its JVM kind, on the heap and to the analysis.
    const KIND: FieldKind;
    const PRIM: PrimKind;
    /// Its width in page bytes.
    const WIDTH: usize;
    fn write(self, heap: &mut Heap, obj: ObjRef, field: usize);
    fn read(heap: &Heap, obj: ObjRef, field: usize) -> Self;
    fn set(self, heap: &mut Heap, arr: ObjRef, i: usize);
    fn get(heap: &Heap, arr: ObjRef, i: usize) -> Self;
    fn kryo_write(self, out: &mut Vec<u8>);
    fn kryo_read(buf: &[u8], pos: &mut usize) -> Self;
}

impl Scalar for f64 {
    const KIND: FieldKind = FieldKind::F64;
    const PRIM: PrimKind = PrimKind::F64;
    const WIDTH: usize = 8;
    #[inline]
    fn write(self, heap: &mut Heap, obj: ObjRef, field: usize) {
        heap.write_f64(obj, field, self)
    }
    #[inline]
    fn read(heap: &Heap, obj: ObjRef, field: usize) -> f64 {
        heap.read_f64(obj, field)
    }
    #[inline]
    fn set(self, heap: &mut Heap, arr: ObjRef, i: usize) {
        heap.array_set_f64(arr, i, self)
    }
    #[inline]
    fn get(heap: &Heap, arr: ObjRef, i: usize) -> f64 {
        heap.array_get_f64(arr, i)
    }
    #[inline]
    fn kryo_write(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    #[inline]
    fn kryo_read(buf: &[u8], pos: &mut usize) -> f64 {
        let v = f64::decode(&buf[*pos..]);
        *pos += 8;
        v
    }
}

impl Scalar for i64 {
    const KIND: FieldKind = FieldKind::I64;
    const PRIM: PrimKind = PrimKind::I64;
    const WIDTH: usize = 8;
    #[inline]
    fn write(self, heap: &mut Heap, obj: ObjRef, field: usize) {
        heap.write_i64(obj, field, self)
    }
    #[inline]
    fn read(heap: &Heap, obj: ObjRef, field: usize) -> i64 {
        heap.read_i64(obj, field)
    }
    #[inline]
    fn set(self, heap: &mut Heap, arr: ObjRef, i: usize) {
        heap.array_set_i64(arr, i, self)
    }
    #[inline]
    fn get(heap: &Heap, arr: ObjRef, i: usize) -> i64 {
        heap.array_get_i64(arr, i)
    }
    #[inline]
    fn kryo_write(self, out: &mut Vec<u8>) {
        write_varint(self as u64, out);
    }
    #[inline]
    fn kryo_read(buf: &[u8], pos: &mut usize) -> i64 {
        read_varint(buf, pos) as i64
    }
}

/// A JVM `int`: one 4-byte heap word; an `i32` varint is its `u32` bits.
impl Scalar for i32 {
    const KIND: FieldKind = FieldKind::I32;
    const PRIM: PrimKind = PrimKind::I32;
    const WIDTH: usize = 4;
    #[inline]
    fn write(self, heap: &mut Heap, obj: ObjRef, field: usize) {
        heap.write_word(obj, field, self as u32 as u64)
    }
    #[inline]
    fn read(heap: &Heap, obj: ObjRef, field: usize) -> i32 {
        heap.read_word(obj, field) as u32 as i32
    }
    #[inline]
    fn set(self, heap: &mut Heap, arr: ObjRef, i: usize) {
        heap.array_set_i32(arr, i, self)
    }
    #[inline]
    fn get(heap: &Heap, arr: ObjRef, i: usize) -> i32 {
        heap.array_get_i32(arr, i)
    }
    #[inline]
    fn kryo_write(self, out: &mut Vec<u8>) {
        (self as u32).kryo_write(out);
    }
    #[inline]
    fn kryo_read(buf: &[u8], pos: &mut usize) -> i32 {
        u32::kryo_read(buf, pos) as i32
    }
}

/// An unsigned id: a JVM `int` on the heap.
impl Scalar for u32 {
    const KIND: FieldKind = FieldKind::I32;
    const PRIM: PrimKind = PrimKind::I32;
    const WIDTH: usize = 4;
    #[inline]
    fn write(self, heap: &mut Heap, obj: ObjRef, field: usize) {
        (self as i32).write(heap, obj, field)
    }
    #[inline]
    fn read(heap: &Heap, obj: ObjRef, field: usize) -> u32 {
        i32::read(heap, obj, field) as u32
    }
    #[inline]
    fn set(self, heap: &mut Heap, arr: ObjRef, i: usize) {
        (self as i32).set(heap, arr, i)
    }
    #[inline]
    fn get(heap: &Heap, arr: ObjRef, i: usize) -> u32 {
        i32::get(heap, arr, i) as u32
    }
    #[inline]
    fn kryo_write(self, out: &mut Vec<u8>) {
        write_varint(self as u64, out);
    }
    #[inline]
    fn kryo_read(buf: &[u8], pos: &mut usize) -> u32 {
        read_varint(buf, pos) as u32
    }
}

/// The heap's nominal size of an object whose fields or elements take
/// `payload` bytes: a 16-byte header, the whole 8-byte aligned.
pub const fn object_bytes(payload: usize) -> usize {
    (16 + payload).div_ceil(8) * 8
}

// ---------------------------------------------------------------------
// boxed scalars (WordCount's Tuple2, SQL projections, shuffle messages)
// ---------------------------------------------------------------------

/// A scalar a generic container holds boxed: a `java.lang.*` object with
/// one `value` field on the heap (the auto-boxing cost §6.5 mentions), and
/// Kryo's boxed form in SparkSer bytes.
pub trait BoxedScalar: Scalar {
    /// The box's class.
    const BOX: &'static str;
    /// Kryo's form of the boxed value: an `i64` is a zigzag varint, an
    /// `f64` raw.
    fn kryo_box_write(self, out: &mut Vec<u8>);
    fn kryo_box_read(buf: &[u8], pos: &mut usize) -> Self;
}

impl BoxedScalar for i64 {
    const BOX: &'static str = "java.lang.Long";
    #[inline]
    fn kryo_box_write(self, out: &mut Vec<u8>) {
        write_varint(zigzag(self), out);
    }
    #[inline]
    fn kryo_box_read(buf: &[u8], pos: &mut usize) -> i64 {
        unzigzag(read_varint(buf, pos))
    }
}

impl BoxedScalar for f64 {
    const BOX: &'static str = "java.lang.Double";
    #[inline]
    fn kryo_box_write(self, out: &mut Vec<u8>) {
        self.kryo_write(out);
    }
    #[inline]
    fn kryo_box_read(buf: &[u8], pos: &mut usize) -> f64 {
        f64::kryo_read(buf, pos)
    }
}

fn box_class<T: BoxedScalar>(heap: &mut Heap) -> ClassId {
    class_or_define(heap, T::BOX, || ClassBuilder::new(T::BOX).field("value", T::KIND))
}

#[inline]
fn store_box<T: BoxedScalar>(v: T, heap: &mut Heap, class: ClassId) -> Result<ObjRef, OomError> {
    let o = heap.alloc(class)?;
    v.write(heap, o, 0);
    Ok(o)
}

fn tuple_class(heap: &mut Heap) -> ClassId {
    class_or_define(heap, "Tuple2", || {
        ClassBuilder::new("Tuple2").field("_1", FieldKind::Ref).field("_2", FieldKind::Ref)
    })
}

/// Boxed scalar classes (a single `java.lang.*` box).
#[derive(Copy, Clone)]
pub struct BoxClasses {
    pub class: ClassId,
}

/// A plain `i64` or `f64` record: one box on the heap.
impl<T: BoxedScalar> HeapRecord for T {
    type Classes = BoxClasses;

    fn register(heap: &mut Heap) -> BoxClasses {
        BoxClasses { class: box_class::<T>(heap) }
    }

    #[inline]
    fn store(&self, heap: &mut Heap, cls: &BoxClasses) -> Result<ObjRef, OomError> {
        store_box(*self, heap, cls.class)
    }

    #[inline]
    fn load(heap: &Heap, _cls: &BoxClasses, obj: ObjRef) -> Self {
        T::read(heap, obj, 0)
    }

    fn heap_size(&self) -> usize {
        object_bytes(T::WIDTH)
    }
}

impl<T: BoxedScalar> KryoRecord for T {
    #[inline]
    fn kryo_encode(&self, out: &mut Vec<u8>) {
        self.kryo_box_write(out);
    }

    #[inline]
    fn kryo_decode(buf: &[u8], pos: &mut usize) -> Self {
        T::kryo_box_read(buf, pos)
    }
}

/// Classes of a boxed pair: `Tuple2 { _1: ref, _2: ref }` with boxed
/// primitive fields, as Scala generics produce on the JVM.
#[derive(Copy, Clone)]
pub struct PairClasses {
    pub tuple: ClassId,
    pub box_a: ClassId,
    pub box_b: ClassId,
}

/// A pair of boxed scalars (WordCount's counts, PageRank's rank messages,
/// SQL aggregates): a `Tuple2` and two boxes, the boxes allocated first.
impl<A: BoxedScalar, B: BoxedScalar> HeapRecord for (A, B) {
    type Classes = PairClasses;

    fn register(heap: &mut Heap) -> PairClasses {
        let tuple = tuple_class(heap);
        PairClasses { tuple, box_a: box_class::<A>(heap), box_b: box_class::<B>(heap) }
    }

    #[inline]
    fn store(&self, heap: &mut Heap, cls: &PairClasses) -> Result<ObjRef, OomError> {
        let a = store_box(self.0, heap, cls.box_a)?;
        let sa = heap.push_stack(a);
        let b = store_box(self.1, heap, cls.box_b)?;
        let sb = heap.push_stack(b);
        let t = heap.alloc(cls.tuple)?;
        heap.write_ref(t, 0, heap.stack_ref(sa));
        heap.write_ref(t, 1, heap.stack_ref(sb));
        heap.truncate_stack(sa);
        Ok(t)
    }

    #[inline]
    fn load(heap: &Heap, _cls: &PairClasses, obj: ObjRef) -> Self {
        (A::read(heap, heap.read_ref(obj, 0), 0), B::read(heap, heap.read_ref(obj, 1), 0))
    }

    fn heap_size(&self) -> usize {
        object_bytes(16) + object_bytes(A::WIDTH) + object_bytes(B::WIDTH)
    }
}

impl<A: BoxedScalar, B: BoxedScalar> KryoRecord for (A, B) {
    #[inline]
    fn kryo_encode(&self, out: &mut Vec<u8>) {
        self.0.kryo_box_write(out);
        self.1.kryo_box_write(out);
    }

    #[inline]
    fn kryo_decode(buf: &[u8], pos: &mut usize) -> Self {
        let a = A::kryo_box_read(buf, pos);
        (a, B::kryo_box_read(buf, pos))
    }
}

/// `(i64, Vec<f64>)` pairs (keyed vectors): heap graph is a Tuple2 with a
/// boxed key and a raw double[] value.
impl HeapRecord for (i64, Vec<f64>) {
    type Classes = PairClasses;

    fn register(heap: &mut Heap) -> PairClasses {
        let tuple = tuple_class(heap);
        let box_a = box_class::<i64>(heap);
        let box_b = array_class_or_define(heap, "double[]", FieldKind::F64);
        PairClasses { tuple, box_a, box_b }
    }

    fn store(&self, heap: &mut Heap, cls: &PairClasses) -> Result<ObjRef, OomError> {
        let a = store_box(self.0, heap, cls.box_a)?;
        let sa = heap.push_stack(a);
        let arr = heap.alloc_array(cls.box_b, self.1.len())?;
        for (i, v) in self.1.iter().enumerate() {
            heap.array_set_f64(arr, i, *v);
        }
        let sb = heap.push_stack(arr);
        let t = heap.alloc(cls.tuple)?;
        heap.write_ref(t, 0, heap.stack_ref(sa));
        heap.write_ref(t, 1, heap.stack_ref(sb));
        heap.truncate_stack(sa);
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
        object_bytes(16) + object_bytes(8) + object_bytes(8 * self.1.len())
    }
}

impl KryoRecord for (i64, Vec<f64>) {
    fn kryo_encode(&self, out: &mut Vec<u8>) {
        write_varint(zigzag(self.0), out);
        kryo_write_array(&self.1, out);
    }

    fn kryo_decode(buf: &[u8], pos: &mut usize) -> Self {
        let k = unzigzag(read_varint(buf, pos));
        (k, kryo_read_array(buf, pos))
    }
}

/// Heap classes of a `java.lang.String`: the String object plus its
/// backing `char[]` (pre-compact-strings JVM layout, as in the paper's
/// JDK 1.7 setup).
#[derive(Copy, Clone)]
pub struct StringClasses {
    pub string: ClassId,
    pub char_array: ClassId,
}

impl HeapRecord for String {
    type Classes = StringClasses;

    fn register(heap: &mut Heap) -> StringClasses {
        let string = class_or_define(heap, "java.lang.String", || {
            ClassBuilder::new("java.lang.String")
                .field("value", FieldKind::Ref)
                .field("hash", FieldKind::I32)
        });
        let char_array = array_class_or_define(heap, "char[]", FieldKind::Char);
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

// ---------------------------------------------------------------------
// declared records
// ---------------------------------------------------------------------

/// The heap classes of a declared record: its own class and, for a record
/// with a trailing array, the [`ArrayClasses`] that hold it (`()` for a
/// record without one).
#[derive(Copy, Clone)]
pub struct RecordClasses<A = ()> {
    pub record: ClassId,
    pub array: A,
}

/// The heap classes that hold a declared record's trailing array of `T`:
/// the array class and, when the declaration names one, the wrapper object
/// between the record and the array (LR's `DenseVector { data, offset,
/// stride, length }`).
#[derive(Copy, Clone)]
pub struct ArrayClasses<T> {
    pub class: ClassId,
    pub wrapper: Option<ClassId>,
    elem: PhantomData<T>,
}

/// The wrapper's `int` fields after `data`: a dense view of the whole
/// array, `offset` 0, `stride` 1, `length` its element count.
const WRAPPER_INTS: [&str; 3] = ["offset", "stride", "length"];

impl<T: Scalar> ArrayClasses<T> {
    /// Bytes of the reference slot a record holds its array (or the
    /// wrapper) by.
    pub const REF_SLOT: usize = 8;

    /// Register the wrapper (if named), then the array class. Idempotent,
    /// like every `register` (see [`class_or_define`]).
    pub fn register(heap: &mut Heap, array: &str, wrapper: Option<&str>) -> Self {
        let wrapper = wrapper.map(|w| {
            class_or_define(heap, w, || {
                WRAPPER_INTS
                    .iter()
                    .fold(ClassBuilder::new(w).field("data", FieldKind::Ref), |b, f| {
                        b.field(*f, FieldKind::I32)
                    })
            })
        });
        let class = array_class_or_define(heap, array, T::KIND);
        ArrayClasses { class, wrapper, elem: PhantomData }
    }

    /// Allocate and fill the array, then its wrapper, each rooted on the
    /// shadow stack as it is made. Returns the stack slot of the object the
    /// record refers to and the mark to truncate the stack to once the
    /// record holds it.
    #[inline]
    pub fn store(&self, heap: &mut Heap, values: &[T]) -> Result<(usize, usize), OomError> {
        let arr = heap.alloc_array(self.class, values.len())?;
        for (i, v) in values.iter().enumerate() {
            v.set(heap, arr, i);
        }
        let mark = heap.push_stack(arr);
        let Some(wrapper) = self.wrapper else { return Ok((mark, mark)) };
        let w = heap.alloc(wrapper)?;
        heap.write_ref(w, 0, heap.stack_ref(mark));
        heap.write_word(w, 1, 0); // offset
        heap.write_word(w, 2, 1); // stride
        heap.write_word(w, 3, values.len() as u64); // length
        Ok((heap.push_stack(w), mark))
    }

    /// Read the array back from the object the record refers to.
    #[inline]
    pub fn load(&self, heap: &Heap, held: ObjRef) -> Vec<T> {
        let arr = if self.wrapper.is_some() { heap.read_ref(held, 0) } else { held };
        (0..heap.array_len(arr)).map(|i| T::get(heap, arr, i)).collect()
    }

    /// Heap bytes of the array of `len` elements and of its wrapper, if
    /// any.
    pub fn heap_size(len: usize, wrapper: Option<&str>) -> usize {
        let wrapper = match wrapper {
            Some(_) => object_bytes(Self::REF_SLOT + 4 * WRAPPER_INTS.len()),
            None => 0,
        };
        wrapper + object_bytes(len * T::WIDTH)
    }

    /// Describe the array (and its wrapper) to the analysis: the type a
    /// record's array field refers to. The wrapper's fields are `val`s.
    pub fn describe(registry: &mut TypeRegistry, array: &str, wrapper: Option<&str>) -> TypeRef {
        let arr = TypeRef::Array(registry.define_array(array, TypeRef::Prim(T::PRIM)));
        let Some(wrapper) = wrapper else { return arr };
        let ints = WRAPPER_INTS.map(|f| FieldDecl::new(f, TypeRef::Prim(PrimKind::I32)).final_());
        let fields = [FieldDecl::new("data", arr).final_()].into_iter().chain(ints).collect();
        TypeRef::Udt(registry.define_udt(UdtDescriptor { name: wrapper.into(), fields }))
    }
}

/// Page bytes of a trailing array: its elements, after a `u32` count when
/// the declaration keeps one.
#[inline]
pub fn array_bytes<T: Scalar>(values: &[T], counted: bool) -> usize {
    let count = if counted { u32::WIDTH } else { 0 };
    count + values.len() * T::WIDTH
}

#[inline]
pub fn encode_array<T: Scalar>(values: &[T], counted: bool, out: &mut [u8]) {
    let out = if counted {
        (values.len() as u32).encode(out);
        &mut out[u32::WIDTH..]
    } else {
        out
    };
    for (v, word) in values.iter().zip(out.chunks_exact_mut(T::WIDTH)) {
        v.encode(word);
    }
}

/// A trailing array's elements in page bytes, as little-endian words of
/// `W` bytes: the count a counted array stores, or every word of `buf`.
#[inline]
pub fn array_words<const W: usize>(buf: &[u8], counted: bool) -> &[[u8; W]] {
    if counted {
        let n = u32::decode(buf) as usize;
        &buf[u32::WIDTH..].as_chunks::<W>().0[..n]
    } else {
        buf.as_chunks::<W>().0
    }
}

/// An array in Kryo bytes: a varint length, then each element.
#[inline]
pub fn kryo_write_array<T: Scalar>(values: &[T], out: &mut Vec<u8>) {
    write_varint(values.len() as u64, out);
    for v in values {
        v.kryo_write(out);
    }
}

#[inline]
pub fn kryo_read_array<T: Scalar>(buf: &[u8], pos: &mut usize) -> Vec<T> {
    let n = read_varint(buf, pos) as usize;
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(T::kryo_read(buf, pos));
    }
    values
}

/// Declare a record once and get all of its representations.
///
/// A declaration lists primitive fields (`i32`, `u32`, `i64`, `f64`) and at
/// most one trailing array, and names the JVM class and field each one
/// is. It emits the struct, its [`HeapRecord`] (the array, then the
/// wrapper if one is named, then the record object, so a store allocates
/// as the JVM would; sizes by the heap's own rule), its [`KryoRecord`]
/// (`f64` raw, integers as plain varints, an array as a varint length and
/// its elements), its [`DecaRecord`] (the fields back to back, little
/// endian; `counted` puts a `u32` element count before the array), a
/// `fields(buf)` split of a record's page bytes, and `describe`, the
/// type the analysis classifies (record fields are `var`s, the wrapper's
/// are `val`s).
///
/// ```
/// deca_engine::record! {
///     /// `VertexEdges { id: int, edges: int[] }`.
///     #[derive(Clone, Debug, PartialEq)]
///     pub struct Vertex as "VertexEdges" {
///         pub id: u32 as "id",
///         pub edges: [u32] as "edges" of "int[]" counted,
///     }
/// }
///
/// let v = Vertex { id: 7, edges: vec![1, 2] };
/// let mut page = vec![0u8; deca_core::DecaRecord::data_size(&v)];
/// deca_core::DecaRecord::encode(&v, &mut page);
/// let (id, edges) = Vertex::fields(&page);
/// assert_eq!((id, edges.len(), page.len()), (7, 2, 4 + 4 + 8));
/// ```
#[macro_export]
macro_rules! record {
    // The trailing array ends the declaration.
    (@munch $head:tt [$($fields:tt)*]
        $avis:vis $arr:ident : [$elem:ident] as $aname:literal
        $(in $wrap:literal)? of $aclass:literal $($counted:ident)? $(,)?
    ) => {
        $crate::record!(@emit $head [$($fields)*]
            [$avis $arr $elem $aname [$($wrap)?] $aclass $crate::record!(@counted $($counted)?)]);
    };
    (@munch $head:tt [$($fields:tt)*]
        $fvis:vis $field:ident : $ty:ident as $fname:literal $(, $($rest:tt)*)?
    ) => {
        $crate::record!(@munch $head [$($fields)* [$fvis $field $ty $fname]] $($($rest)*)?);
    };
    (@munch $head:tt [$($fields:tt)*]) => {
        $crate::record!(@emit $head [$($fields)*] []);
    };
    (@counted) => { false };
    (@counted counted) => { true };
    (@some) => { None::<&str> };
    (@some $e:expr) => { Some($e) };
    (@fixed_size [$($ty:ident)*]) => { Some(0 $(+ <$ty as $crate::record::Scalar>::WIDTH)*) };
    (@fixed_size [$($ty:ident)*] $elem:ident) => { None };
    (@emit [$(#[$meta:meta])* $vis:vis struct $name:ident as $class:literal]
        [$([$fvis:vis $field:ident $ty:ident $fname:literal])*]
        [$($avis:vis $arr:ident $elem:ident $aname:literal [$($wrap:literal)?] $aclass:literal
            $counted:expr)?]
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($fvis $field: $ty,)*
            $($avis $arr: Vec<$elem>,)?
        }

        #[allow(unused_assignments, unused_mut)]
        impl $name {
            /// The transformed code's view of a record's page bytes, split
            /// once: each field, then the array's elements as
            /// little-endian words.
            #[inline]
            pub fn fields(
                buf: &[u8],
            ) -> ($($ty,)* $(&[[u8; <$elem as $crate::record::Scalar>::WIDTH]],)?) {
                let mut at = 0;
                $(
                    let $field = <$ty as $crate::record::deca_core::DecaRecord>::decode(&buf[at..]);
                    at += <$ty as $crate::record::Scalar>::WIDTH;
                )*
                ($($field,)* $($crate::record::array_words::<
                    { <$elem as $crate::record::Scalar>::WIDTH },
                >(&buf[at..], $counted),)?)
            }

            /// Describe the record to the analysis: define its types in
            /// `registry` and return the record's.
            pub fn describe(
                registry: &mut $crate::record::deca_udt::TypeRegistry,
            ) -> $crate::record::deca_udt::UdtId {
                use $crate::record::deca_udt::{FieldDecl, TypeRef, UdtDescriptor};
                let fields = vec![
                    $(FieldDecl::new($fname, TypeRef::Prim(<$ty as $crate::record::Scalar>::PRIM)),)*
                    $(FieldDecl::new($aname, $crate::record::ArrayClasses::<$elem>::describe(
                        registry,
                        $aclass,
                        $crate::record!(@some $($wrap)?),
                    )),)?
                ];
                registry.define_udt(UdtDescriptor { name: $class.into(), fields })
            }
        }

        impl $crate::record::HeapRecord for $name {
            type Classes = $crate::record::RecordClasses<$($crate::record::ArrayClasses<$elem>)?>;

            fn register(heap: &mut $crate::record::deca_heap::Heap) -> Self::Classes {
                use $crate::record::deca_heap::{ClassBuilder, FieldKind};
                let record = $crate::record::class_or_define(heap, $class, || {
                    ClassBuilder::new($class)
                        $(.field($fname, <$ty as $crate::record::Scalar>::KIND))*
                        $(.field($aname, FieldKind::Ref))?
                });
                let array = ($($crate::record::ArrayClasses::<$elem>::register(
                    heap,
                    $aclass,
                    $crate::record!(@some $($wrap)?),
                ))?);
                $crate::record::RecordClasses { record, array }
            }

            #[inline]
            #[allow(unused_assignments, unused_mut)]
            fn store(
                &self,
                heap: &mut $crate::record::deca_heap::Heap,
                cls: &Self::Classes,
            ) -> Result<$crate::record::deca_heap::ObjRef, $crate::record::deca_heap::OomError> {
                use $crate::record::Scalar;
                $(let $arr = cls.array.store(heap, &self.$arr)?;)?
                let obj = heap.alloc(cls.record)?;
                let mut slot = 0;
                $(
                    self.$field.write(heap, obj, slot);
                    slot += 1;
                )*
                $(
                    heap.write_ref(obj, slot, heap.stack_ref($arr.0));
                    heap.truncate_stack($arr.1);
                )?
                Ok(obj)
            }

            #[inline]
            #[allow(unused_assignments, unused_mut)]
            fn load(
                heap: &$crate::record::deca_heap::Heap,
                cls: &Self::Classes,
                obj: $crate::record::deca_heap::ObjRef,
            ) -> Self {
                let mut slot = 0;
                $(
                    let $field = <$ty as $crate::record::Scalar>::read(heap, obj, slot);
                    slot += 1;
                )*
                $(let $arr = cls.array.load(heap, heap.read_ref(obj, slot));)?
                $name { $($field,)* $($arr,)? }
            }

            fn heap_size(&self) -> usize {
                use $crate::record::{object_bytes, ArrayClasses, Scalar};
                object_bytes(0 $(+ <$ty as Scalar>::WIDTH)* $(+ ArrayClasses::<$elem>::REF_SLOT)?)
                    $(+ ArrayClasses::<$elem>::heap_size(self.$arr.len(), $crate::record!(@some $($wrap)?)))?
            }
        }

        impl $crate::record::KryoRecord for $name {
            #[inline]
            fn kryo_encode(&self, out: &mut Vec<u8>) {
                use $crate::record::Scalar;
                $(self.$field.kryo_write(out);)*
                $($crate::record::kryo_write_array(&self.$arr, out);)?
            }

            #[inline]
            fn kryo_decode(buf: &[u8], pos: &mut usize) -> Self {
                $(let $field = <$ty as $crate::record::Scalar>::kryo_read(buf, pos);)*
                $(let $arr = $crate::record::kryo_read_array::<$elem>(buf, pos);)?
                $name { $($field,)* $($arr,)? }
            }
        }

        impl $crate::record::deca_core::DecaRecord for $name {
            const FIXED_SIZE: Option<usize> = $crate::record!(@fixed_size [$($ty)*] $($elem)?);

            #[inline]
            fn data_size(&self) -> usize {
                0 $(+ <$ty as $crate::record::Scalar>::WIDTH)*
                    $(+ $crate::record::array_bytes(&self.$arr, $counted))?
            }

            #[inline]
            #[allow(unused_assignments, unused_mut)]
            fn encode(&self, out: &mut [u8]) {
                use $crate::record::deca_core::DecaRecord;
                let mut at = 0;
                $(
                    self.$field.encode(&mut out[at..]);
                    at += <$ty as $crate::record::Scalar>::WIDTH;
                )*
                $($crate::record::encode_array(&self.$arr, $counted, &mut out[at..]);)?
            }

            #[inline]
            fn decode(buf: &[u8]) -> Self {
                let ($($field,)* $($arr,)?) = Self::fields(buf);
                $name {
                    $($field,)*
                    $($arr: $arr
                        .iter()
                        .map(|w| <$elem as $crate::record::deca_core::DecaRecord>::decode(w))
                        .collect(),)?
                }
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident as $class:literal { $($body:tt)* }
    ) => {
        $crate::record!(@munch [$(#[$meta])* $vis struct $name as $class] [] $($body)*);
    };
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

    /// Store `rec` on a fresh heap and read it back; `heap_size` is what
    /// the store allocated.
    fn heap_roundtrip<T: HeapRecord + PartialEq + std::fmt::Debug>(rec: T) -> Heap {
        let mut heap = Heap::new(HeapConfig::small());
        let cls = T::register(&mut heap);
        let before = heap.stats().bytes_allocated;
        let obj = rec.store(&mut heap, &cls).unwrap();
        assert_eq!(T::load(&heap, &cls, obj), rec);
        let stored = heap.stats().bytes_allocated - before;
        assert_eq!(rec.heap_size() as u64, stored, "heap_size is what store allocates");
        heap
    }

    #[test]
    fn pair_heap_roundtrip() {
        let rec = (42i64, -7i64);
        let heap = heap_roundtrip(rec);
        // Three objects per record: the header/boxing bloat of Figure 2.
        assert_eq!(heap.object_count(), 3);
        assert_eq!(rec.heap_size(), 80);
    }

    #[test]
    fn pair_if64_heap_roundtrip() {
        heap_roundtrip((5i64, 2.25f64));
        heap_roundtrip((2.25f64, 5i64));
        heap_roundtrip((5i64, vec![1.0f64, -2.0, 3.5]));
        heap_roundtrip(9i64);
        heap_roundtrip(-0.5f64);
        heap_roundtrip(String::from("héllo"));
    }

    /// Boxed scalars keep Kryo's boxed forms: an `i64` a zigzag varint, an
    /// `f64` raw.
    #[test]
    fn boxed_kryo_bytes_are_zigzag_and_raw() {
        let mut buf = Vec::new();
        (-1i64, 0.5f64).kryo_encode(&mut buf);
        (0.5f64, 1i64).kryo_encode(&mut buf);
        (-2i64).kryo_encode(&mut buf);
        let half = 0.5f64.to_le_bytes();
        assert_eq!(buf, [&[1][..], &half, &half, &[2], &[3]].concat());
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
