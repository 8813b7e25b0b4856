//! Kryo-like serializer simulation.
//!
//! The SparkSer baseline (§6.2) serializes cached data with Kryo. The
//! defining costs are per-object: a class tag, field-by-field encoding with
//! variable-length integers, and on read a full re-materialisation of the
//! object. `KryoSim` performs real encode/decode work of that shape so the
//! measured ser/deser times (Table 5, bottom rows) are genuine CPU costs,
//! slightly higher per object than Deca's flat layout writes — matching the
//! paper's observation that Deca serialization ≈ Kryo serialization while
//! Deca needs no deserialization at all.
//!
//! ## No owned record at the boundary
//!
//! The JVM's Kryo reads a record straight into the objects it allocates
//! and writes one straight from the graph's fields. Here the Spark modes
//! do the same, through [`Record`]'s walks: [`KryoSim::decode_block`]
//! decodes a cached block into its records' page form, back to back in
//! one reused buffer ([`PageRecords`]), which a SparkSer scan visits and a
//! cache restore stores on the heap record by record;
//! [`KryoSim::serialize_heap`] (and, for a shuffle buffer's key and value,
//! [`KryoSim::serialize_heap_pair`]) encodes a heap graph into the run.
//! The bytes and object counts are the owned path's: `serialize` of what
//! `load` returns, `deserialize` of what `encode` wrote. The owned
//! `serialize`/`deserialize` calls remain for Rust-side input (a cache
//! put of a generated dataset) and for the shuffle's scalar and
//! borrowed-string reads.
//!
//! ## Timing granularity
//!
//! Timing is **phase-scoped**, not per-record: encoding one `(i64, i64)`
//! pair is a handful of nanoseconds, so bracketing every record with two
//! `Instant::now()` calls (the original design) made the harness dominate
//! the cost it claims to measure — the measurement-overhead trap
//! "Garbage Collection or Serialization?" (Kolokasis et al.) warns
//! about. [`KryoSim::serialize_all`]/[`KryoSim::deserialize_all`] time
//! the whole batch with one timer pair; call sites that drive the
//! per-record API directly wrap their loop in
//! [`KryoSim::time_ser`]/[`KryoSim::time_deser`]. `ser_time`/`deser_time`
//! therefore cover the serialization *phase* (including buffer walking
//! interleaved with encode calls); the `objects_*` counters stay exact
//! per record. A block decode is one timer pair; the heap stores a SparkSer
//! kernel then makes from the decoded bytes are the kernel's compute, as
//! they were when the decode built owned records.

use std::time::{Duration, Instant};

use deca_heap::{Heap, ObjRef};

use crate::record::{kryo_decode_str, BoxedScalar, KryoRecord, Record};

/// A Kryo-ish serializer with timing counters.
#[derive(Debug, Default)]
pub struct KryoSim {
    pub ser_time: Duration,
    pub deser_time: Duration,
    pub objects_serialized: u64,
    pub objects_deserialized: u64,
    /// The last block [`KryoSim::decode_block`] decoded, its buffers
    /// reused by the next.
    pages: PageRecords,
}

/// A block's records in page form, back to back: each record's
/// [`DecaRecord`](deca_core::DecaRecord) bytes, as a Deca block holds them.
#[derive(Debug, Default)]
pub struct PageRecords {
    bytes: Vec<u8>,
    /// Where each record's bytes end.
    ends: Vec<usize>,
}

impl PageRecords {
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Record `i`'s page bytes.
    pub fn get(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }
}

/// Per-object framing overhead: a 2-byte class registration id (Kryo's
/// registered-class varint is 1–2 bytes).
pub const CLASS_TAG: [u8; 2] = [0x5a, 0x01];

impl KryoSim {
    pub fn new() -> KryoSim {
        KryoSim::default()
    }

    /// Serialize one record, appending to `out`. Untimed — wrap the
    /// enclosing loop in [`KryoSim::time_ser`] (see the module docs on
    /// timing granularity); the object counter stays exact.
    pub fn serialize<T: KryoRecord>(&mut self, rec: &T, out: &mut Vec<u8>) {
        out.extend_from_slice(&CLASS_TAG);
        rec.kryo_encode(out);
        self.objects_serialized += 1;
    }

    /// Deserialize one record from `buf` starting at `*pos`. Untimed —
    /// wrap the enclosing loop in [`KryoSim::time_deser`].
    pub fn deserialize<T: KryoRecord>(&mut self, buf: &[u8], pos: &mut usize) -> T {
        self.tagged(buf, pos, T::kryo_decode)
    }

    /// Deserialize one `String` record as a `&str` borrowed from `buf`:
    /// the same tag check, UTF-8 validation and object count as
    /// `deserialize::<String>`, without the owned copy. Untimed, like
    /// [`KryoSim::deserialize`].
    pub fn deserialize_str<'b>(&mut self, buf: &'b [u8], pos: &mut usize) -> &'b str {
        self.tagged(buf, pos, kryo_decode_str)
    }

    /// Deserialize one record at `*pos` into its page form, appended to
    /// `out` (Kryo → page, no owned record): the same tag check and object
    /// count as [`KryoSim::deserialize`]. Untimed.
    pub fn deserialize_page<T: Record>(
        &mut self,
        buf: &[u8],
        pos: &mut usize,
        out: &mut PageRecords,
    ) {
        self.tagged(buf, pos, |buf, pos| T::kryo_to_page(buf, pos, &mut out.bytes));
        out.ends.push(out.bytes.len());
    }

    /// Decode every record of a block into page form, under one
    /// deserializer timer pair: what a SparkSer read and a cache restore
    /// visit. The result lives until the next decode.
    pub fn decode_block<T: Record>(&mut self, buf: &[u8]) -> &PageRecords {
        let mut pages = std::mem::take(&mut self.pages);
        pages.bytes.clear();
        pages.ends.clear();
        self.time_deser(|k| {
            let mut pos = 0;
            while pos < buf.len() {
                k.deserialize_page::<T>(buf, &mut pos, &mut pages);
            }
        });
        self.pages = pages;
        &self.pages
    }

    /// Serialize one record straight from its heap graph at `obj` (heap →
    /// Kryo, no owned record): the bytes and object count of
    /// `serialize(&T::load(..))`. Untimed.
    pub fn serialize_heap<T: Record>(
        &mut self,
        heap: &Heap,
        cls: &T::Classes,
        obj: ObjRef,
        out: &mut Vec<u8>,
    ) {
        out.extend_from_slice(&CLASS_TAG);
        T::kryo_from_heap(heap, cls, obj, out);
        self.objects_serialized += 1;
    }

    /// Serialize one pair record `(A, B)` from its key's box and its
    /// value's graph, as a shuffle buffer holds a key and its value apart:
    /// the bytes and object count of `serialize(&(a, b))`. Untimed.
    pub fn serialize_heap_pair<A: BoxedScalar + Record, B: Record>(
        &mut self,
        heap: &Heap,
        (ca, cb): (&A::Classes, &B::Classes),
        (a, b): (ObjRef, ObjRef),
        out: &mut Vec<u8>,
    ) {
        out.extend_from_slice(&CLASS_TAG);
        A::kryo_from_heap(heap, ca, a, out);
        B::kryo_from_heap(heap, cb, b, out);
        self.objects_serialized += 1;
    }

    fn tagged<'b, R>(
        &mut self,
        buf: &'b [u8],
        pos: &mut usize,
        decode: impl FnOnce(&'b [u8], &mut usize) -> R,
    ) -> R {
        debug_assert_eq!(&buf[*pos..*pos + 2], &CLASS_TAG);
        *pos += 2;
        let rec = decode(buf, pos);
        self.objects_deserialized += 1;
        rec
    }

    /// Scoped serialization timer: charge the closure's wall time to
    /// `ser_time` with a single timer pair, however many records it
    /// encodes.
    pub fn time_ser<R>(&mut self, f: impl FnOnce(&mut KryoSim) -> R) -> R {
        let t = Instant::now();
        let r = f(self);
        self.ser_time += t.elapsed();
        r
    }

    /// Scoped deserialization timer: charge the closure's wall time to
    /// `deser_time` with a single timer pair.
    pub fn time_deser<R>(&mut self, f: impl FnOnce(&mut KryoSim) -> R) -> R {
        let t = Instant::now();
        let r = f(self);
        self.deser_time += t.elapsed();
        r
    }

    /// Serialize a whole slice into a fresh buffer, timed at batch
    /// granularity.
    pub fn serialize_all<T: KryoRecord>(&mut self, recs: &[T]) -> Vec<u8> {
        self.time_ser(|k| {
            let mut out = Vec::new();
            for r in recs {
                k.serialize(r, &mut out);
            }
            out
        })
    }

    /// Deserialize all records in `buf`, timed at batch granularity.
    pub fn deserialize_all<T: KryoRecord>(&mut self, buf: &[u8]) -> Vec<T> {
        self.time_deser(|k| {
            let mut out = Vec::new();
            let mut pos = 0;
            while pos < buf.len() {
                out.push(k.deserialize(buf, &mut pos));
            }
            out
        })
    }

    /// Average serialization time per object so far.
    pub fn avg_ser(&self) -> Duration {
        if self.objects_serialized == 0 {
            Duration::ZERO
        } else {
            self.ser_time / self.objects_serialized as u32
        }
    }

    pub fn avg_deser(&self) -> Duration {
        if self.objects_deserialized == 0 {
            Duration::ZERO
        } else {
            self.deser_time / self.objects_deserialized as u32
        }
    }
}

/// Kryo-style variable-length unsigned integer (1–5 bytes for u32).
pub fn write_varint(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

pub fn read_varint(buf: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = buf[*pos];
        *pos += 1;
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, 1 << 20, u32::MAX as u64, u64::MAX];
        for &v in &values {
            write_varint(v, &mut buf);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut pos), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn roundtrip_with_timing() {
        let mut k = KryoSim::new();
        let recs: Vec<(i64, f64)> = (0..1000).map(|i| (i, i as f64 * 0.5)).collect();
        let buf = k.serialize_all(&recs);
        assert!(k.objects_serialized == 1000);
        let back: Vec<(i64, f64)> = k.deserialize_all(&buf);
        assert_eq!(back, recs);
        assert_eq!(k.objects_deserialized, 1000);
        // Per-object framing present: buffer is larger than raw payload.
        assert!(buf.len() > 1000 * 2);
    }

    #[test]
    fn batch_timers_charge_phases_and_counters_stay_exact() {
        // The per-record API is untimed on its own; wrapped in a scoped
        // timer, the whole loop charges one phase with one timer pair.
        let mut k = KryoSim::new();
        let mut out = Vec::new();
        k.serialize(&(1i64, 2i64), &mut out);
        assert_eq!(k.objects_serialized, 1);
        assert_eq!(k.ser_time, Duration::ZERO, "bare per-record calls are untimed");
        let buf = k.time_ser(|k| {
            let mut buf = Vec::new();
            for i in 0..1000i64 {
                k.serialize(&(i, i), &mut buf);
            }
            buf
        });
        assert_eq!(k.objects_serialized, 1001, "counters stay exact per record");
        assert!(k.ser_time > Duration::ZERO, "the scope charged ser_time");
        let before = k.deser_time;
        let back: Vec<(i64, i64)> = k.time_deser(|k| {
            let mut pos = 0;
            let mut recs = Vec::new();
            while pos < buf.len() {
                recs.push(k.deserialize(&buf, &mut pos));
            }
            recs
        });
        assert_eq!(back.len(), 1000);
        assert_eq!(k.objects_deserialized, 1000);
        assert!(k.deser_time > before);
    }
}
