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
//! The umbrella trait [`Record`] ties them together for the cache manager,
//! and is the Spark modes' Kryo boundary: a record crosses between Kryo
//! bytes, its page form (its `DecaRecord` bytes) and its heap graph with
//! no owned Rust record in between. `kryo_to_page` decodes Kryo into page
//! bytes appended to a reused buffer, `store_page` allocates the heap
//! graph from them (exactly the objects `store` allocates, in its order:
//! array, wrapper, record), and `kryo_from_heap` encodes the graph's
//! fields straight into the Kryo run. The owned `load`, `kryo_decode` and
//! `decode` remain for tests, for reading back a Spark table's values and
//! for the Deca modes' own decodes. [`HeapKey`] reads a shuffle key off
//! the heap the same way, a `String` into one reused buffer.
//!
//! An app record is declared once with [`record!`](crate::record!), which
//! emits all three, its boundary walks and its [`View`], from one list of
//! fields, plus the descriptor the optimizer analyses; the primitives it
//! stores are [`Scalar`]s. Boxed scalars ([`BoxedScalar`]), their pairs
//! with a record and `String` are implemented here.
//!
//! A `String`'s `char[]` is written and read in bulk, as the JVM's `String`
//! intrinsics and `System.arraycopy` move it. ASCII text — every token the
//! text workloads store — crosses as bytes, four units a word: it is
//! inflated into the array ([`Heap::char_array_inflate`], the JDK's
//! Latin-1 inflate) and compressed out of it ([`Heap::char_array_compress`],
//! Kryo's `writeAscii` check). Any other text is transcoded to and from
//! UTF-16 ([`Heap::char_array_write`] / [`Heap::char_array_units`]). Both
//! paths make the same allocations, in the same order and of the same
//! nominal sizes, and write the same `char[]` words: what the Spark
//! baseline pays for a `String` is its objects, their tracing and their
//! Kryo bytes, not a per-character transcoding the JVM does not do. No
//! per-element interpretation or intermediate `Vec<u16>` sits between the
//! record and its heap graph. The Kryo encode from the heap compresses an
//! ASCII `char[]` straight into the run, so its bytes are the owned
//! path's. A primitive array likewise crosses between page bytes and the
//! heap in one copy ([`Heap::array_write_le`] / [`Heap::array_read_le`]),
//! and an `f64` array between Kryo and page bytes, whose element bytes
//! are the same.

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
    type Classes: Copy + Send + Sync;

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

/// A record usable in all three execution modes, and the Spark modes'
/// Kryo boundary with no owned record on it: each crossing goes straight
/// between Kryo bytes, the record's page form (its [`DecaRecord`] bytes)
/// and its heap graph. `record!` emits these for a declared record; the
/// boxed scalars, their pairs with a record and `String` implement them
/// here.
pub trait Record: DecaRecord + HeapRecord + KryoRecord + Clone + Send {
    /// Kryo → page form: decode the record at `*pos` and append its page
    /// bytes to `out`, the bytes `DecaRecord::encode` writes for what
    /// `kryo_decode` returns.
    fn kryo_to_page(buf: &[u8], pos: &mut usize, out: &mut Vec<u8>);

    /// Page form → heap: allocate the graph of the record whose page bytes
    /// are `page`, exactly the objects `store` allocates, in its order. The
    /// returned root is not yet rooted, as `store`'s.
    fn store_page(page: &[u8], heap: &mut Heap, cls: &Self::Classes) -> Result<ObjRef, OomError>;

    /// Heap → Kryo: append the Kryo bytes of the graph at `obj`, read off
    /// its fields: the bytes `kryo_encode` writes for what `load` returns.
    fn kryo_from_heap(heap: &Heap, cls: &Self::Classes, obj: ObjRef, out: &mut Vec<u8>);
}

/// A shuffle key read back off the heap without an owned copy, as the
/// Spark shuffle's write and reduce fold read their keys: a boxed scalar,
/// or a pair of them, as its value; a `String` as its text, decoded into
/// one reused buffer ([`load_str_into`]).
pub trait HeapKey: HeapRecord {
    /// The reused decode buffer.
    type Buf: Default;
    type View<'b>;
    fn view<'b>(
        heap: &Heap,
        cls: &Self::Classes,
        obj: ObjRef,
        buf: &'b mut Self::Buf,
    ) -> Self::View<'b>;
}

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
pub trait Scalar: DecaRecord + Copy + 'static {
    /// Its JVM kind, on the heap and to the analysis.
    const KIND: FieldKind;
    const PRIM: PrimKind;
    /// Its width in page bytes.
    const WIDTH: usize;
    /// Its page bytes as one word, `[u8; WIDTH]`.
    type Word: Copy + AsRef<[u8]> + AsMut<[u8]> + Default + 'static;
    fn write(self, heap: &mut Heap, obj: ObjRef, field: usize);
    fn read(heap: &Heap, obj: ObjRef, field: usize) -> Self;
    fn set(self, heap: &mut Heap, arr: ObjRef, i: usize);
    fn get(heap: &Heap, arr: ObjRef, i: usize) -> Self;
    fn kryo_write(self, out: &mut Vec<u8>);
    fn kryo_read(buf: &[u8], pos: &mut usize) -> Self;
    /// Its Kryo bytes are its page bytes (an `f64`'s raw little-endian
    /// word), so an array of it crosses between the two as one copy.
    const KRYO_RAW: bool = false;
}

/// Append `v`'s page bytes, its little-endian [`DecaRecord`] form, to `out`.
#[inline]
pub fn push_page<T: Scalar>(v: T, out: &mut Vec<u8>) {
    let mut word = [0u8; 8];
    v.encode(&mut word);
    out.extend_from_slice(&word[..T::WIDTH]);
}

impl Scalar for f64 {
    type Word = [u8; 8];
    const KIND: FieldKind = FieldKind::F64;
    const PRIM: PrimKind = PrimKind::F64;
    const WIDTH: usize = 8;
    const KRYO_RAW: bool = true;
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
    type Word = [u8; 8];
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
    type Word = [u8; 4];
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
    type Word = [u8; 4];
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

impl<T: BoxedScalar + Send> Record for T {
    #[inline]
    fn kryo_to_page(buf: &[u8], pos: &mut usize, out: &mut Vec<u8>) {
        push_page(T::kryo_box_read(buf, pos), out);
    }

    #[inline]
    fn store_page(page: &[u8], heap: &mut Heap, cls: &BoxClasses) -> Result<ObjRef, OomError> {
        store_box(T::decode(page), heap, cls.class)
    }

    #[inline]
    fn kryo_from_heap(heap: &Heap, _cls: &BoxClasses, obj: ObjRef, out: &mut Vec<u8>) {
        T::read(heap, obj, 0).kryo_box_write(out);
    }
}

impl<T: BoxedScalar> HeapKey for T {
    type Buf = ();
    type View<'b> = T;

    #[inline]
    fn view(heap: &Heap, _cls: &BoxClasses, obj: ObjRef, _buf: &mut ()) -> T {
        T::read(heap, obj, 0)
    }
}

/// Classes of a pair: `Tuple2 { _1: ref, _2: ref }` with a boxed first
/// part, as Scala generics produce on the JVM, and the classes of its
/// second part's graph `B` (a box, for a boxed scalar).
#[derive(Copy, Clone)]
pub struct PairClasses<B = BoxClasses> {
    pub tuple: ClassId,
    pub box_a: ClassId,
    pub b: B,
}

/// A pair of a boxed scalar and a record (WordCount's counts, PageRank's
/// rank messages, SQL's aggregates): a `Tuple2`, the first part's box and
/// the second part's graph, the parts allocated first. A boxed scalar's
/// graph is its box, so a pair of them is a `Tuple2` and two boxes.
impl<A: BoxedScalar, B: HeapRecord> HeapRecord for (A, B) {
    type Classes = PairClasses<B::Classes>;

    fn register(heap: &mut Heap) -> Self::Classes {
        let tuple = tuple_class(heap);
        PairClasses { tuple, box_a: box_class::<A>(heap), b: B::register(heap) }
    }

    #[inline]
    fn store(&self, heap: &mut Heap, cls: &Self::Classes) -> Result<ObjRef, OomError> {
        store_pair(heap, cls, self.0, |heap| self.1.store(heap, &cls.b))
    }

    #[inline]
    fn load(heap: &Heap, cls: &Self::Classes, obj: ObjRef) -> Self {
        (A::read(heap, heap.read_ref(obj, 0), 0), B::load(heap, &cls.b, heap.read_ref(obj, 1)))
    }

    fn heap_size(&self) -> usize {
        object_bytes(16) + object_bytes(A::WIDTH) + self.1.heap_size()
    }
}

/// A pair's graph: `a`'s box, then the second part's graph `store_b`
/// allocates, then the `Tuple2`, each part rooted across the allocations
/// after it.
#[inline]
fn store_pair<A: BoxedScalar, C>(
    heap: &mut Heap,
    cls: &PairClasses<C>,
    a: A,
    store_b: impl FnOnce(&mut Heap) -> Result<ObjRef, OomError>,
) -> Result<ObjRef, OomError> {
    let a = store_box(a, heap, cls.box_a)?;
    heap.scope(|heap| {
        let sa = heap.push_stack(a);
        let b = store_b(heap)?;
        let sb = heap.push_stack(b);
        let t = heap.alloc(cls.tuple)?;
        heap.write_ref(t, 0, heap.stack_ref(sa));
        heap.write_ref(t, 1, heap.stack_ref(sb));
        Ok(t)
    })
}

impl<A: BoxedScalar, B: KryoRecord> KryoRecord for (A, B) {
    #[inline]
    fn kryo_encode(&self, out: &mut Vec<u8>) {
        self.0.kryo_box_write(out);
        self.1.kryo_encode(out);
    }

    #[inline]
    fn kryo_decode(buf: &[u8], pos: &mut usize) -> Self {
        let a = A::kryo_box_read(buf, pos);
        (a, B::kryo_decode(buf, pos))
    }
}

impl<A: BoxedScalar + Send, B: Record> Record for (A, B) {
    #[inline]
    fn kryo_to_page(buf: &[u8], pos: &mut usize, out: &mut Vec<u8>) {
        A::kryo_to_page(buf, pos, out);
        B::kryo_to_page(buf, pos, out);
    }

    #[inline]
    fn store_page(page: &[u8], heap: &mut Heap, cls: &Self::Classes) -> Result<ObjRef, OomError> {
        store_pair(heap, cls, A::decode(page), |heap| {
            B::store_page(&page[A::WIDTH..], heap, &cls.b)
        })
    }

    #[inline]
    fn kryo_from_heap(heap: &Heap, cls: &Self::Classes, obj: ObjRef, out: &mut Vec<u8>) {
        A::read(heap, heap.read_ref(obj, 0), 0).kryo_box_write(out);
        B::kryo_from_heap(heap, &cls.b, heap.read_ref(obj, 1), out);
    }
}

impl<A: BoxedScalar, B: HeapRecord> HeapKey for (A, B) {
    type Buf = ();
    type View<'b> = (A, B);

    #[inline]
    fn view(heap: &Heap, cls: &Self::Classes, obj: ObjRef, _buf: &mut ()) -> (A, B) {
        Self::load(heap, cls, obj)
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
        // String 16+8+4 -> 32; char[n] 16+2n aligned
        32 + object_bytes(2 * utf16_len(self))
    }
}

/// The UTF-16 code units of `s`, one per `char[]` element: one per byte
/// of ASCII text, two for an astral character.
#[inline]
fn utf16_len(s: &str) -> usize {
    if s.is_ascii() {
        s.len()
    } else {
        s.encode_utf16().count()
    }
}

/// Store `s` as a heap `java.lang.String` + `char[]` graph, as
/// [`HeapRecord::store`] does for a `String`, from borrowed text: a kernel
/// that reads its tokens out of a shared buffer stores each without an
/// owned copy on the Rust side. ASCII text is inflated from its bytes
/// ([`Heap::char_array_inflate`]); any other text is transcoded to UTF-16.
/// Either way the `char[]` is allocated first and holds the same units.
pub fn store_str(heap: &mut Heap, cls: &StringClasses, s: &str) -> Result<ObjRef, OomError> {
    let arr = heap.alloc_array(cls.char_array, utf16_len(s))?;
    if s.is_ascii() {
        heap.char_array_inflate(arr, s.as_bytes());
    } else {
        heap.char_array_write(arr, s.encode_utf16());
    }
    heap.scope(|heap| {
        let sa = heap.push_stack(arr);
        let obj = heap.alloc(cls.string)?;
        heap.write_ref(obj, 0, heap.stack_ref(sa));
        Ok(obj)
    })
}

/// Decode a heap `java.lang.String` into `out`, replacing its content: the
/// `String` object's `char[]` read in bulk, compressed straight into
/// `out`'s bytes when every unit is ASCII ([`Heap::char_array_compress`])
/// and decoded from UTF-16 otherwise ([`Heap::char_array_units`]). A kernel
/// that decodes one key per record reuses one `out` buffer, so the Rust
/// side allocates nothing per record.
pub fn load_str_into(heap: &Heap, obj: ObjRef, out: &mut String) {
    let arr = heap.read_ref(obj, 0);
    let mut bytes = std::mem::take(out).into_bytes();
    bytes.clear();
    let ascii = heap.char_array_compress(arr, &mut bytes);
    // ASCII bytes are UTF-8, and so is an empty buffer.
    *out = String::from_utf8(bytes).unwrap_or_default();
    if !ascii {
        let units = heap.char_array_units(arr);
        out.extend(char::decode_utf16(units).map(|c| c.expect("valid UTF-16")));
    }
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

/// Page form: the text's UTF-8 bytes (the frame carries the length).
impl Record for String {
    fn kryo_to_page(buf: &[u8], pos: &mut usize, out: &mut Vec<u8>) {
        out.extend_from_slice(kryo_decode_str(buf, pos).as_bytes());
    }

    fn store_page(page: &[u8], heap: &mut Heap, cls: &StringClasses) -> Result<ObjRef, OomError> {
        // Page bytes are the UTF-8 of a `str`; borrowed, never copied.
        store_str(heap, cls, &String::from_utf8_lossy(page))
    }

    /// ASCII text is compressed out of its `char[]` straight into the run
    /// ([`Heap::char_array_compress`]), one byte per unit after a varint
    /// of the unit count; any other text is transcoded from UTF-16, a
    /// Latin-1 unit to two UTF-8 bytes, an astral pair to four.
    fn kryo_from_heap(heap: &Heap, _cls: &StringClasses, obj: ObjRef, out: &mut Vec<u8>) {
        let arr = heap.read_ref(obj, 0);
        let at = out.len();
        write_varint(heap.array_len(arr) as u64, out);
        if heap.char_array_compress(arr, out) {
            return;
        }
        out.truncate(at);
        let chars = || {
            char::decode_utf16(heap.char_array_units(arr))
                .map(|c| c.unwrap_or(char::REPLACEMENT_CHARACTER))
        };
        write_varint(chars().map(char::len_utf8).sum::<usize>() as u64, out);
        for c in chars() {
            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
        }
    }
}

impl HeapKey for String {
    type Buf = String;
    type View<'b> = &'b str;

    fn view<'b>(heap: &Heap, _cls: &StringClasses, obj: ObjRef, buf: &'b mut String) -> &'b str {
        load_str_into(heap, obj, buf);
        buf
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

    /// Allocate and fill the array, then its wrapper, each pushed on the
    /// shadow stack as it is made, to be held across the allocations after
    /// it. Returns the stack slot of the object the record refers to.
    /// Call it inside the record's [`Heap::scope`], which pops both on
    /// every return.
    #[inline]
    pub fn store(&self, heap: &mut Heap, values: &[T]) -> Result<usize, OomError> {
        self.store_with(heap, values.len(), |heap, arr| {
            for (i, v) in values.iter().enumerate() {
                v.set(heap, arr, i);
            }
        })
    }

    /// [`ArrayClasses::store`] of the array whose elements are the page
    /// bytes `elements`, copied into it in bulk ([`Heap::array_write_le`]).
    #[inline]
    pub fn store_page(&self, heap: &mut Heap, elements: &[u8]) -> Result<usize, OomError> {
        let len = elements.len() / T::WIDTH;
        self.store_with(heap, len, |heap, arr| heap.array_write_le(arr, elements))
    }

    /// Allocate the array of `len` elements and `fill` it, then its
    /// wrapper.
    #[inline]
    fn store_with(
        &self,
        heap: &mut Heap,
        len: usize,
        fill: impl FnOnce(&mut Heap, ObjRef),
    ) -> Result<usize, OomError> {
        let arr = heap.alloc_array(self.class, len)?;
        fill(heap, arr);
        let sa = heap.push_stack(arr);
        let Some(wrapper) = self.wrapper else { return Ok(sa) };
        let w = heap.alloc(wrapper)?;
        heap.write_ref(w, 0, heap.stack_ref(sa));
        heap.write_word(w, 1, 0); // offset
        heap.write_word(w, 2, 1); // stride
        heap.write_word(w, 3, len as u64); // length
        Ok(heap.push_stack(w))
    }

    /// The array behind the object the record refers to.
    #[inline]
    pub fn heap_array<'h>(&self, heap: &'h Heap, held: ObjRef) -> HeapArray<'h, T> {
        let arr = if self.wrapper.is_some() { heap.read_ref(held, 0) } else { held };
        HeapArray::new(heap, arr)
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

/// A Kryo array at `*pos` decoded into its page bytes, appended to `out`:
/// a `u32` count first when `counted`, then each element little-endian.
#[inline]
pub fn kryo_array_to_page<T: Scalar>(
    buf: &[u8],
    pos: &mut usize,
    counted: bool,
    out: &mut Vec<u8>,
) {
    let n = read_varint(buf, pos) as usize;
    if counted {
        push_page(n as u32, out);
    }
    if T::KRYO_RAW {
        let elements = &buf[*pos..*pos + n * T::WIDTH];
        out.extend_from_slice(elements);
        *pos += elements.len();
    } else {
        for _ in 0..n {
            push_page(T::kryo_read(buf, pos), out);
        }
    }
}

// ---------------------------------------------------------------------
// views: a declared record read in place
// ---------------------------------------------------------------------

/// A declared record's trailing array as a UDF reads it in place: its
/// page words ([`PageArray`]) or its heap array ([`HeapArray`]).
pub trait Elements<T>: Copy {
    fn len(&self) -> usize;
    fn get(&self, i: usize) -> T;
    fn iter(&self) -> impl Iterator<Item = T>;
}

/// A trailing array in page bytes: its elements as little-endian words.
#[derive(Copy, Clone)]
pub struct PageArray<'b, T: Scalar>(pub &'b [T::Word]);

impl<T: Scalar> Elements<T> for PageArray<'_, T> {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn get(&self, i: usize) -> T {
        T::decode(self.0[i].as_ref())
    }

    fn iter(&self) -> impl Iterator<Item = T> {
        self.0.iter().map(|w| T::decode(w.as_ref()))
    }
}

/// A trailing array on the heap, read an element at a time as the JVM's
/// typed array loads read it.
#[derive(Copy, Clone)]
pub struct HeapArray<'h, T> {
    heap: &'h Heap,
    arr: ObjRef,
    elem: PhantomData<T>,
}

impl<'h, T: Scalar> HeapArray<'h, T> {
    pub fn new(heap: &'h Heap, arr: ObjRef) -> Self {
        HeapArray { heap, arr, elem: PhantomData }
    }

    /// The array object, to view again after the heap was borrowed.
    pub fn obj(&self) -> ObjRef {
        self.arr
    }

    /// Append its Kryo bytes, as [`kryo_write_array`] writes its elements.
    pub fn kryo_write(&self, out: &mut Vec<u8>) {
        write_varint(self.len() as u64, out);
        if T::KRYO_RAW {
            self.heap.array_read_le(self.arr, out);
        } else {
            self.iter().for_each(|v| v.kryo_write(out));
        }
    }
}

impl<T: Scalar> Elements<T> for HeapArray<'_, T> {
    fn len(&self) -> usize {
        self.heap.array_len(self.arr)
    }

    fn get(&self, i: usize) -> T {
        T::get(self.heap, self.arr, i)
    }

    fn iter(&self) -> impl Iterator<Item = T> {
        (0..self.len()).map(|i| self.get(i))
    }
}

/// Where a view reads a record's trailing array: in [`Page`] bytes or
/// [`OnHeap`].
pub trait ArrayKind: 'static {
    type Array<'a, T: Scalar>: Elements<T>;
}

/// A record read from its page bytes ([`View::fields`]).
pub enum Page {}

impl ArrayKind for Page {
    type Array<'a, T: Scalar> = PageArray<'a, T>;
}

/// A record read from its heap graph ([`View::heap_fields`]).
pub enum OnHeap {}

impl ArrayKind for OnHeap {
    type Array<'a, T: Scalar> = HeapArray<'a, T>;
}

/// A declared record read in place (`record!` emits it): its own struct,
/// each scalar read from its declared place, the trailing array a view.
pub trait View: Record {
    /// The record's struct with its array read where `K` says (the struct
    /// itself for a record without one).
    type Fields<'a, K: ArrayKind>;
    /// Split the record's page bytes.
    fn fields(buf: &[u8]) -> Self::Fields<'_, Page>;
    /// Read the record's heap graph at `obj`.
    fn heap_fields<'h>(
        heap: &'h Heap,
        cls: &Self::Classes,
        obj: ObjRef,
    ) -> Self::Fields<'h, OnHeap>;
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
/// endian; `counted` puts a `u32` element count before the array), its
/// [`Record`] boundary walks (Kryo → page bytes, page bytes → heap graph
/// in `store`'s order, heap graph → Kryo), its [`View`], and `describe`,
/// the type the analysis classifies (record fields are `var`s, the
/// wrapper's are `val`s).
///
/// The struct is generic over its trailing array (`Vec` by default), so
/// its [`View`] is the struct itself: a UDF reads a record by field name,
/// from page bytes or the heap graph alike, and the declaration is the
/// only code that knows the record's slots and offsets.
///
/// ```
/// use deca_engine::record::{Elements, HeapRecord, View};
///
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
/// let Vertex { id, edges } = Vertex::fields(&page);
/// assert_eq!((id, edges.len(), page.len()), (7, 2, 4 + 4 + 8));
///
/// let mut heap = deca_heap::Heap::new(deca_heap::HeapConfig::small());
/// let cls = Vertex::register(&mut heap);
/// let Ok(obj) = v.store(&mut heap, &cls) else { panic!("the heap has room") };
/// let on_heap = Vertex::heap_fields(&heap, &cls, obj);
/// assert_eq!(on_heap.id, id);
/// assert!(on_heap.edges.iter().eq(edges.iter()));
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
        $vis struct $name $(<A = Vec<$elem>>)? {
            $($fvis $field: $ty,)*
            $($avis $arr: A,)?
        }

        impl $name {
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

        impl $crate::record::View for $name {
            type Fields<'a, K: $crate::record::ArrayKind> = $name $(<K::Array<'a, $elem>>)?;

            #[inline]
            #[allow(unused_assignments, unused_mut)]
            fn fields(buf: &[u8]) -> Self::Fields<'_, $crate::record::Page> {
                let mut at = 0;
                $(
                    let $field = <$ty as $crate::record::deca_core::DecaRecord>::decode(&buf[at..]);
                    at += <$ty as $crate::record::Scalar>::WIDTH;
                )*
                $name {
                    $($field,)*
                    $($arr: $crate::record::PageArray($crate::record::array_words::<
                        { <$elem as $crate::record::Scalar>::WIDTH },
                    >(&buf[at..], $counted)),)?
                }
            }

            #[inline]
            #[allow(unused_assignments, unused_mut)]
            fn heap_fields<'h>(
                heap: &'h $crate::record::deca_heap::Heap,
                cls: &Self::Classes,
                obj: $crate::record::deca_heap::ObjRef,
            ) -> Self::Fields<'h, $crate::record::OnHeap> {
                let mut slot = 0;
                $(
                    let $field = <$ty as $crate::record::Scalar>::read(heap, obj, slot);
                    slot += 1;
                )*
                $name { $($field,)* $($arr: cls.array.heap_array(heap, heap.read_ref(obj, slot)),)? }
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
                heap.scope(|heap| {
                    $(let $arr = cls.array.store(heap, &self.$arr)?;)?
                    let obj = heap.alloc(cls.record)?;
                    let mut slot = 0;
                    $(
                        self.$field.write(heap, obj, slot);
                        slot += 1;
                    )*
                    $(heap.write_ref(obj, slot, heap.stack_ref($arr));)?
                    Ok(obj)
                })
            }

            #[inline]
            fn load(
                heap: &$crate::record::deca_heap::Heap,
                cls: &Self::Classes,
                obj: $crate::record::deca_heap::ObjRef,
            ) -> Self {
                let v = <Self as $crate::record::View>::heap_fields(heap, cls, obj);
                $name { $($field: v.$field,)* $($arr: $crate::record::Elements::iter(&v.$arr).collect(),)? }
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

        impl $crate::record::Record for $name {
            #[inline]
            fn kryo_to_page(buf: &[u8], pos: &mut usize, out: &mut Vec<u8>) {
                $($crate::record::push_page(
                    <$ty as $crate::record::Scalar>::kryo_read(buf, pos),
                    out,
                );)*
                $($crate::record::kryo_array_to_page::<$elem>(buf, pos, $counted, out);)?
            }

            /// As `store`: the array, then the wrapper, then the record.
            #[inline]
            #[allow(unused_assignments, unused_mut)]
            fn store_page(
                page: &[u8],
                heap: &mut $crate::record::deca_heap::Heap,
                cls: &Self::Classes,
            ) -> Result<$crate::record::deca_heap::ObjRef, $crate::record::deca_heap::OomError> {
                use $crate::record::Scalar;
                let v = <Self as $crate::record::View>::fields(page);
                heap.scope(|heap| {
                    $(let $arr = cls.array.store_page(heap, v.$arr.0.as_flattened())?;)?
                    let obj = heap.alloc(cls.record)?;
                    let mut slot = 0;
                    $(
                        v.$field.write(heap, obj, slot);
                        slot += 1;
                    )*
                    $(heap.write_ref(obj, slot, heap.stack_ref($arr));)?
                    Ok(obj)
                })
            }

            #[inline]
            fn kryo_from_heap(
                heap: &$crate::record::deca_heap::Heap,
                cls: &Self::Classes,
                obj: $crate::record::deca_heap::ObjRef,
                out: &mut Vec<u8>,
            ) {
                use $crate::record::Scalar;
                let v = <Self as $crate::record::View>::heap_fields(heap, cls, obj);
                $(v.$field.kryo_write(out);)*
                $(v.$arr.kryo_write(out);)?
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
                let v = <Self as $crate::record::View>::fields(buf);
                $name { $($field: v.$field,)* $($arr: $crate::record::Elements::iter(&v.$arr).collect(),)? }
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
        heap_roundtrip((5i64, Wrapped { id: 3, values: vec![1.0, -2.0, 3.5] }));
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

    #[allow(dead_code, unused_imports)]
    mod wrapped {
        crate::record! {
            /// A record with a wrapped array: the store's longest walk
            /// (array, wrapper, record).
            #[derive(Clone, Debug, PartialEq)]
            pub struct Wrapped as "WrappedProbe" {
                pub id: i64 as "id",
                pub values: [f64] as "values" in "DenseVectorProbe" of "double[]",
            }
        }
    }
    use wrapped::Wrapped;

    /// Run `store` against heaps with room for `room` more filler objects,
    /// for `room` from 0 until the store succeeds, so each of its
    /// allocations meets the full heap in turn. Every failed store must
    /// return `Err` and leave the heap's root count as it found it (no
    /// part left on the shadow stack).
    fn each_allocation_fails_in_turn<C>(
        shape: &str,
        setup: impl Fn(&mut Heap) -> C,
        store: impl Fn(&mut Heap, &mut C) -> Result<(), OomError>,
    ) {
        // Root empty objects until `limit` of them are made or one is
        // refused; returns how many were made.
        fn fill(heap: &mut Heap, limit: usize) -> usize {
            let class = class_or_define(heap, "Filler", || ClassBuilder::new("Filler"));
            (0..limit).take_while(|_| heap.alloc(class).map(|o| heap.add_root(o)).is_ok()).count()
        }
        let mut failed_at = std::collections::BTreeSet::new();
        for room in 0.. {
            assert!(room < 1024, "{shape}: never succeeded");
            let mut heap = Heap::new(HeapConfig::with_total(256 << 10));
            let mut ctx = setup(&mut heap);
            // A refused allocation collects the rooted eden into the old
            // generation and leaves eden empty: the second refusal counts
            // eden's capacity, and the third fill leaves `room` of it.
            fill(&mut heap, usize::MAX);
            let eden = fill(&mut heap, usize::MAX);
            assert_eq!(fill(&mut heap, eden - room), eden - room, "{shape}: eden holds its fill");
            let roots = heap.root_count();
            // Counts every allocation attempted, a refused one included.
            let attempted = heap.stats().objects_allocated;
            let result = store(&mut heap, &mut ctx);
            let attempts = heap.stats().objects_allocated - attempted;
            if result.is_ok() {
                let want: std::collections::BTreeSet<u64> = (1..=attempts).collect();
                assert_eq!(failed_at, want, "{shape}: each allocation failed in turn");
                return;
            }
            assert_eq!(heap.root_count(), roots, "{shape}: allocation {attempts} failed");
            failed_at.insert(attempts);
        }
    }

    #[test]
    fn a_store_that_meets_a_full_heap_leaves_no_part_on_the_shadow_stack() {
        fn shape<T: HeapRecord>(name: &str, rec: T) {
            each_allocation_fails_in_turn(name, T::register, |heap, cls| {
                rec.store(heap, cls).map(drop)
            });
        }
        shape("(i64, i64)", (3i64, 4i64));
        shape("(i64, record! with a wrapped array)", (3i64, Wrapped { id: 3, values: vec![1.0] }));
        shape("String", String::from("héllo"));
        shape("record! with a wrapped array", Wrapped { id: 3, values: vec![1.0, 2.0] });
        each_allocation_fails_in_turn("store_str", String::register, |heap, cls| {
            store_str(heap, cls, "borrowed").map(drop)
        });
        each_allocation_fails_in_turn(
            "the wrapped-array page walk",
            Wrapped::register,
            |heap, cls| {
                let rec = Wrapped { id: 3, values: vec![1.0, 2.0] };
                let mut page = vec![0u8; deca_core::DecaRecord::data_size(&rec)];
                deca_core::DecaRecord::encode(&rec, &mut page);
                Wrapped::store_page(&page, heap, cls).map(drop)
            },
        );
        each_allocation_fails_in_turn(
            "SparkHashShuffle::insert",
            |heap| crate::shuffle::SparkHashShuffle::<i64, (i64, i64)>::new(heap).unwrap(),
            |heap, table| table.insert(heap, 7i64, (1, 2), |a, _| a),
        );
        each_allocation_fails_in_turn(
            "SparkGroupShuffle::append",
            |heap| {
                let mut groups = crate::shuffle::SparkGroupShuffle::<i64, i64>::new(heap);
                // Four values fill key 7's first list, so the next append
                // stores its value and then grows the list.
                for v in 0..4 {
                    groups.append(heap, 7, v).unwrap();
                }
                groups
            },
            |heap, groups| groups.append(heap, 7, 4),
        );
        each_allocation_fails_in_turn(
            "SparkGroupShuffle::append of a new key",
            crate::shuffle::SparkGroupShuffle::<i64, i64>::new,
            |heap, groups| groups.append(heap, 7, 4),
        );
    }
}
