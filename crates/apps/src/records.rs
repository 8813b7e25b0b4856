//! Workload UDTs in all three physical representations, plus their
//! `deca-udt` descriptors for the optimizer.
//!
//! * [`LabeledPointRec`] — the paper's running example (Figure 1):
//!   `LabeledPoint { label: Double, features: DenseVector { data: double[] } }`.
//!   SFST when the dimension is a global constant.
//! * [`AdjListRec`] — PageRank/CC adjacency: `(vertexId, int[] neighbors)`.
//!   RFST (per-vertex degree fixed after the grouping phase — §3.4).
//! * [`RankingRec`] / [`UserVisitRec`] — the §6.6 table rows.

use deca_core::DecaRecord;
use deca_engine::record::{HeapRecord, KryoRecord};
use deca_engine::serde_sim::{read_varint, write_varint};
use deca_heap::{ClassBuilder, ClassId, FieldKind, Heap, ObjRef, OomError};

// =====================================================================
// LabeledPoint
// =====================================================================

/// A labeled feature vector (LR / KMeans cache records).
#[derive(Clone, Debug, PartialEq)]
pub struct LabeledPointRec {
    pub label: f64,
    pub features: Vec<f64>,
}

impl LabeledPointRec {
    /// Decomposed size for dimension `d` (no headers, no refs, no
    /// offset/stride/length ints — they are derivable constants and the
    /// transformed code does not need them; cf. Figure 2 which keeps only
    /// `label` and `data[0..D]`).
    pub fn sfst_size(d: usize) -> usize {
        8 + 8 * d
    }
}

/// Heap classes of the LabeledPoint graph (Figure 2's upper half).
#[derive(Copy, Clone)]
pub struct LabeledPointClasses {
    pub labeled_point: ClassId,
    pub dense_vector: ClassId,
    pub double_array: ClassId,
}

impl HeapRecord for LabeledPointRec {
    type Classes = LabeledPointClasses;

    fn register(heap: &mut Heap) -> Self::Classes {
        // Registration must be idempotent: under the cluster driver every
        // task re-registers, and a later task's sample/recompute must see
        // the same ClassId the cached objects were allocated with.
        let labeled_point = match heap.registry().by_name("LabeledPoint") {
            Some(c) => c,
            None => heap.define_class(
                ClassBuilder::new("LabeledPoint")
                    .field("label", FieldKind::F64)
                    .field("features", FieldKind::Ref),
            ),
        };
        let dense_vector = match heap.registry().by_name("DenseVector") {
            Some(c) => c,
            None => heap.define_class(
                ClassBuilder::new("DenseVector")
                    .field("data", FieldKind::Ref)
                    .field("offset", FieldKind::I32)
                    .field("stride", FieldKind::I32)
                    .field("length", FieldKind::I32),
            ),
        };
        let double_array = match heap.registry().by_name("double[]") {
            Some(c) => c,
            None => heap.define_array_class("double[]", FieldKind::F64),
        };
        LabeledPointClasses { labeled_point, dense_vector, double_array }
    }

    fn store(&self, heap: &mut Heap, cls: &Self::Classes) -> Result<ObjRef, OomError> {
        let d = self.features.len();
        let arr = heap.alloc_array(cls.double_array, d)?;
        for (i, v) in self.features.iter().enumerate() {
            heap.array_set_f64(arr, i, *v);
        }
        let sa = heap.push_stack(arr);
        let dv = heap.alloc(cls.dense_vector)?;
        heap.write_ref(dv, 0, heap.stack_ref(sa));
        heap.write_word(dv, 1, 0); // offset
        heap.write_word(dv, 2, 1); // stride
        heap.write_word(dv, 3, d as u64); // length
        let sdv = heap.push_stack(dv);
        let lp = heap.alloc(cls.labeled_point)?;
        heap.write_f64(lp, 0, self.label);
        heap.write_ref(lp, 1, heap.stack_ref(sdv));
        heap.truncate_stack(sa);
        Ok(lp)
    }

    fn load(heap: &Heap, _cls: &Self::Classes, obj: ObjRef) -> Self {
        let label = heap.read_f64(obj, 0);
        let dv = heap.read_ref(obj, 1);
        let arr = heap.read_ref(dv, 0);
        let d = heap.array_len(arr);
        let mut features = Vec::with_capacity(d);
        for i in 0..d {
            features.push(heap.array_get_f64(arr, i));
        }
        LabeledPointRec { label, features }
    }

    fn heap_size(&self) -> usize {
        let d = self.features.len();
        // LabeledPoint 32 + DenseVector 40 + double[d] 16+8d aligned
        32 + 40 + (16 + 8 * d).div_ceil(8) * 8
    }
}

impl DecaRecord for LabeledPointRec {
    const FIXED_SIZE: Option<usize> = None; // runtime-resolved SFST

    fn data_size(&self) -> usize {
        Self::sfst_size(self.features.len())
    }

    fn encode(&self, out: &mut [u8]) {
        out[..8].copy_from_slice(&self.label.to_le_bytes());
        for (i, v) in self.features.iter().enumerate() {
            out[8 + i * 8..16 + i * 8].copy_from_slice(&v.to_le_bytes());
        }
    }

    fn decode(buf: &[u8]) -> Self {
        let (words, _) = buf.as_chunks::<8>();
        let (label, features) = (words[0], &words[1..]);
        let features = features.iter().map(|&x| f64::from_le_bytes(x)).collect();
        LabeledPointRec { label: f64::from_le_bytes(label), features }
    }
}

impl KryoRecord for LabeledPointRec {
    fn kryo_encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.label.to_le_bytes());
        write_varint(self.features.len() as u64, out);
        for v in &self.features {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn kryo_decode(buf: &[u8], pos: &mut usize) -> Self {
        let label = f64::from_le_bytes(buf[*pos..*pos + 8].try_into().expect("8 bytes"));
        *pos += 8;
        let d = read_varint(buf, pos) as usize;
        let mut features = Vec::with_capacity(d);
        for _ in 0..d {
            features.push(f64::from_le_bytes(buf[*pos..*pos + 8].try_into().expect("8 bytes")));
            *pos += 8;
        }
        LabeledPointRec { label, features }
    }
}

// =====================================================================
// Adjacency lists (PageRank / ConnectedComponents)
// =====================================================================

/// One vertex's adjacency list.
#[derive(Clone, Debug, PartialEq)]
pub struct AdjListRec {
    pub vertex: u32,
    pub neighbors: Vec<u32>,
}

/// Heap classes of the adjacency graph: `VertexEdges { id, edges: int[] }`.
#[derive(Copy, Clone)]
pub struct AdjClasses {
    pub vertex: ClassId,
    pub int_array: ClassId,
}

impl HeapRecord for AdjListRec {
    type Classes = AdjClasses;

    fn register(heap: &mut Heap) -> Self::Classes {
        let vertex = match heap.registry().by_name("VertexEdges") {
            Some(c) => c,
            None => heap.define_class(
                ClassBuilder::new("VertexEdges")
                    .field("id", FieldKind::I32)
                    .field("edges", FieldKind::Ref),
            ),
        };
        let int_array = match heap.registry().by_name("int[]") {
            Some(c) => c,
            None => heap.define_array_class("int[]", FieldKind::I32),
        };
        AdjClasses { vertex, int_array }
    }

    fn store(&self, heap: &mut Heap, cls: &Self::Classes) -> Result<ObjRef, OomError> {
        let arr = heap.alloc_array(cls.int_array, self.neighbors.len())?;
        for (i, n) in self.neighbors.iter().enumerate() {
            heap.array_set_i32(arr, i, *n as i32);
        }
        let sa = heap.push_stack(arr);
        let v = heap.alloc(cls.vertex)?;
        heap.write_word(v, 0, self.vertex as u64);
        heap.write_ref(v, 1, heap.stack_ref(sa));
        heap.truncate_stack(sa);
        Ok(v)
    }

    fn load(heap: &Heap, _cls: &Self::Classes, obj: ObjRef) -> Self {
        let vertex = heap.read_word(obj, 0) as u32;
        let arr = heap.read_ref(obj, 1);
        let n = heap.array_len(arr);
        let neighbors = (0..n).map(|i| heap.array_get_i32(arr, i) as u32).collect();
        AdjListRec { vertex, neighbors }
    }

    fn heap_size(&self) -> usize {
        // VertexEdges 16+4+8 -> 32 aligned; int[n] 16+4n aligned
        32 + (16 + 4 * self.neighbors.len()).div_ceil(8) * 8
    }
}

impl AdjListRec {
    /// The transformed code's view of an adjacency segment, split once:
    /// the vertex id and its neighbor ids as little-endian 4-byte words.
    pub(crate) fn fields(buf: &[u8]) -> (u32, &[[u8; 4]]) {
        let (words, _) = buf.as_chunks::<4>();
        let n = u32::from_le_bytes(words[1]) as usize;
        (u32::from_le_bytes(words[0]), &words[2..2 + n])
    }
}

impl DecaRecord for AdjListRec {
    const FIXED_SIZE: Option<usize> = None; // RFST (framed)

    fn data_size(&self) -> usize {
        4 + 4 + 4 * self.neighbors.len()
    }

    fn encode(&self, out: &mut [u8]) {
        out[..4].copy_from_slice(&self.vertex.to_le_bytes());
        out[4..8].copy_from_slice(&(self.neighbors.len() as u32).to_le_bytes());
        for (i, n) in self.neighbors.iter().enumerate() {
            out[8 + i * 4..12 + i * 4].copy_from_slice(&n.to_le_bytes());
        }
    }

    fn decode(buf: &[u8]) -> Self {
        let (vertex, neighbors) = AdjListRec::fields(buf);
        let neighbors = neighbors.iter().map(|&n| u32::from_le_bytes(n)).collect();
        AdjListRec { vertex, neighbors }
    }
}

impl KryoRecord for AdjListRec {
    fn kryo_encode(&self, out: &mut Vec<u8>) {
        write_varint(self.vertex as u64, out);
        write_varint(self.neighbors.len() as u64, out);
        for n in &self.neighbors {
            write_varint(*n as u64, out);
        }
    }

    fn kryo_decode(buf: &[u8], pos: &mut usize) -> Self {
        let vertex = read_varint(buf, pos) as u32;
        let n = read_varint(buf, pos) as usize;
        let neighbors = (0..n).map(|_| read_varint(buf, pos) as u32).collect();
        AdjListRec { vertex, neighbors }
    }
}

// =====================================================================
// SQL rows (§6.6)
// =====================================================================

/// A row of the `rankings` table (pageURL modelled as a synthetic id).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RankingRec {
    pub url_id: i64,
    pub page_rank: i32,
    pub avg_duration: i32,
}

/// Heap classes for RankingRec (a flat row object).
#[derive(Copy, Clone)]
pub struct RowClasses {
    pub row: ClassId,
}

impl HeapRecord for RankingRec {
    type Classes = RowClasses;

    fn register(heap: &mut Heap) -> Self::Classes {
        let row = match heap.registry().by_name("Ranking") {
            Some(c) => c,
            None => heap.define_class(
                ClassBuilder::new("Ranking")
                    .field("urlId", FieldKind::I64)
                    .field("pageRank", FieldKind::I32)
                    .field("avgDuration", FieldKind::I32),
            ),
        };
        RowClasses { row }
    }

    fn store(&self, heap: &mut Heap, cls: &Self::Classes) -> Result<ObjRef, OomError> {
        let o = heap.alloc(cls.row)?;
        heap.write_i64(o, 0, self.url_id);
        heap.write_word(o, 1, self.page_rank as u32 as u64);
        heap.write_word(o, 2, self.avg_duration as u32 as u64);
        Ok(o)
    }

    fn load(heap: &Heap, _cls: &Self::Classes, obj: ObjRef) -> Self {
        RankingRec {
            url_id: heap.read_i64(obj, 0),
            page_rank: heap.read_word(obj, 1) as u32 as i32,
            avg_duration: heap.read_word(obj, 2) as u32 as i32,
        }
    }

    fn heap_size(&self) -> usize {
        16 + 8 + 4 + 4 // -> 32
    }
}

impl DecaRecord for RankingRec {
    const FIXED_SIZE: Option<usize> = Some(16);

    fn data_size(&self) -> usize {
        16
    }

    fn encode(&self, out: &mut [u8]) {
        out[..8].copy_from_slice(&self.url_id.to_le_bytes());
        out[8..12].copy_from_slice(&self.page_rank.to_le_bytes());
        out[12..16].copy_from_slice(&self.avg_duration.to_le_bytes());
    }

    fn decode(buf: &[u8]) -> Self {
        let (url_id, ints) = buf.split_at(8);
        let (ints, _) = ints.as_chunks::<4>();
        RankingRec {
            url_id: i64::from_le_bytes(url_id.as_chunks::<8>().0[0]),
            page_rank: i32::from_le_bytes(ints[0]),
            avg_duration: i32::from_le_bytes(ints[1]),
        }
    }
}

impl KryoRecord for RankingRec {
    fn kryo_encode(&self, out: &mut Vec<u8>) {
        write_varint(self.url_id as u64, out);
        write_varint(self.page_rank as u32 as u64, out);
        write_varint(self.avg_duration as u32 as u64, out);
    }

    fn kryo_decode(buf: &[u8], pos: &mut usize) -> Self {
        RankingRec {
            url_id: read_varint(buf, pos) as i64,
            page_rank: read_varint(buf, pos) as u32 as i32,
            avg_duration: read_varint(buf, pos) as u32 as i32,
        }
    }
}

/// A row of the `uservisits` table (sourceIP prefix packed into an i64).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct UserVisitRec {
    pub ip_prefix: i64,
    pub url_id: i64,
    pub ad_revenue: f64,
}

impl HeapRecord for UserVisitRec {
    type Classes = RowClasses;

    fn register(heap: &mut Heap) -> Self::Classes {
        let row = match heap.registry().by_name("UserVisit") {
            Some(c) => c,
            None => heap.define_class(
                ClassBuilder::new("UserVisit")
                    .field("ipPrefix", FieldKind::I64)
                    .field("urlId", FieldKind::I64)
                    .field("adRevenue", FieldKind::F64),
            ),
        };
        RowClasses { row }
    }

    fn store(&self, heap: &mut Heap, cls: &Self::Classes) -> Result<ObjRef, OomError> {
        let o = heap.alloc(cls.row)?;
        heap.write_i64(o, 0, self.ip_prefix);
        heap.write_i64(o, 1, self.url_id);
        heap.write_f64(o, 2, self.ad_revenue);
        Ok(o)
    }

    fn load(heap: &Heap, _cls: &Self::Classes, obj: ObjRef) -> Self {
        UserVisitRec {
            ip_prefix: heap.read_i64(obj, 0),
            url_id: heap.read_i64(obj, 1),
            ad_revenue: heap.read_f64(obj, 2),
        }
    }

    fn heap_size(&self) -> usize {
        16 + 24
    }
}

impl DecaRecord for UserVisitRec {
    const FIXED_SIZE: Option<usize> = Some(24);

    fn data_size(&self) -> usize {
        24
    }

    fn encode(&self, out: &mut [u8]) {
        out[..8].copy_from_slice(&self.ip_prefix.to_le_bytes());
        out[8..16].copy_from_slice(&self.url_id.to_le_bytes());
        out[16..24].copy_from_slice(&self.ad_revenue.to_le_bytes());
    }

    fn decode(buf: &[u8]) -> Self {
        let (words, _) = buf.as_chunks::<8>();
        UserVisitRec {
            ip_prefix: i64::from_le_bytes(words[0]),
            url_id: i64::from_le_bytes(words[1]),
            ad_revenue: f64::from_le_bytes(words[2]),
        }
    }
}

impl KryoRecord for UserVisitRec {
    fn kryo_encode(&self, out: &mut Vec<u8>) {
        write_varint(self.ip_prefix as u64, out);
        write_varint(self.url_id as u64, out);
        out.extend_from_slice(&self.ad_revenue.to_le_bytes());
    }

    fn kryo_decode(buf: &[u8], pos: &mut usize) -> Self {
        let ip_prefix = read_varint(buf, pos) as i64;
        let url_id = read_varint(buf, pos) as i64;
        let ad_revenue = f64::from_le_bytes(buf[*pos..*pos + 8].try_into().expect("8 bytes"));
        *pos += 8;
        UserVisitRec { ip_prefix, url_id, ad_revenue }
    }
}

// =====================================================================
// Join aggregates (SQL Query 3 — extension)
// =====================================================================

/// Per-group aggregate of the join query: revenue sum, pageRank sum, and
/// row count (to derive AVG). An SFST of 24 bytes.
#[derive(Copy, Clone, Debug, PartialEq, Default)]
pub struct JoinAggRec {
    pub revenue: f64,
    pub rank_sum: f64,
    pub count: i64,
}

impl JoinAggRec {
    pub fn merge(self, other: JoinAggRec) -> JoinAggRec {
        JoinAggRec {
            revenue: self.revenue + other.revenue,
            rank_sum: self.rank_sum + other.rank_sum,
            count: self.count + other.count,
        }
    }

    /// In-place byte combine for the decomposed buffers.
    pub fn combine_bytes(acc: &mut [u8], add: &[u8]) {
        let a = JoinAggRec::decode(acc);
        let b = JoinAggRec::decode(add);
        a.merge(b).encode(acc);
    }
}

/// Heap classes: a three-field aggregate object.
impl HeapRecord for JoinAggRec {
    type Classes = RowClasses;

    fn register(heap: &mut Heap) -> Self::Classes {
        let row = match heap.registry().by_name("JoinAgg") {
            Some(c) => c,
            None => heap.define_class(
                ClassBuilder::new("JoinAgg")
                    .field("revenue", FieldKind::F64)
                    .field("rankSum", FieldKind::F64)
                    .field("count", FieldKind::I64),
            ),
        };
        RowClasses { row }
    }

    fn store(&self, heap: &mut Heap, cls: &Self::Classes) -> Result<ObjRef, OomError> {
        let o = heap.alloc(cls.row)?;
        heap.write_f64(o, 0, self.revenue);
        heap.write_f64(o, 1, self.rank_sum);
        heap.write_i64(o, 2, self.count);
        Ok(o)
    }

    fn load(heap: &Heap, _cls: &Self::Classes, obj: ObjRef) -> Self {
        JoinAggRec {
            revenue: heap.read_f64(obj, 0),
            rank_sum: heap.read_f64(obj, 1),
            count: heap.read_i64(obj, 2),
        }
    }

    fn heap_size(&self) -> usize {
        40
    }
}

impl DecaRecord for JoinAggRec {
    const FIXED_SIZE: Option<usize> = Some(24);

    fn data_size(&self) -> usize {
        24
    }

    fn encode(&self, out: &mut [u8]) {
        out[..8].copy_from_slice(&self.revenue.to_le_bytes());
        out[8..16].copy_from_slice(&self.rank_sum.to_le_bytes());
        out[16..24].copy_from_slice(&self.count.to_le_bytes());
    }

    fn decode(buf: &[u8]) -> Self {
        JoinAggRec {
            revenue: f64::from_le_bytes(buf[..8].try_into().expect("8 bytes")),
            rank_sum: f64::from_le_bytes(buf[8..16].try_into().expect("8 bytes")),
            count: i64::from_le_bytes(buf[16..24].try_into().expect("8 bytes")),
        }
    }
}

impl KryoRecord for JoinAggRec {
    fn kryo_encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.revenue.to_le_bytes());
        out.extend_from_slice(&self.rank_sum.to_le_bytes());
        write_varint(self.count as u64, out);
    }

    fn kryo_decode(buf: &[u8], pos: &mut usize) -> Self {
        let revenue = f64::from_le_bytes(buf[*pos..*pos + 8].try_into().expect("8 bytes"));
        *pos += 8;
        let rank_sum = f64::from_le_bytes(buf[*pos..*pos + 8].try_into().expect("8 bytes"));
        *pos += 8;
        let count = read_varint(buf, pos) as i64;
        JoinAggRec { revenue, rank_sum, count }
    }
}

// =====================================================================
// deca-udt descriptors (what the optimizer analyses)
// =====================================================================

/// Build the `deca-udt` descriptor universe and stage program for the LR
/// job, delegating to the shared fixture (the paper's running example).
pub fn lr_analysis() -> deca_udt::fixtures::LrProgram {
    deca_udt::fixtures::lr_program()
}

#[cfg(test)]
mod tests {
    use super::*;
    use deca_heap::HeapConfig;

    fn roundtrip_all<T>(rec: T)
    where
        T: DecaRecord + KryoRecord + HeapRecord + Clone + PartialEq + std::fmt::Debug,
    {
        // Deca
        let mut buf = vec![0u8; rec.data_size()];
        rec.encode(&mut buf);
        assert_eq!(T::decode(&buf), rec, "deca layout roundtrip");
        // Kryo
        let mut kbuf = Vec::new();
        rec.kryo_encode(&mut kbuf);
        let mut pos = 0;
        assert_eq!(T::kryo_decode(&kbuf, &mut pos), rec, "kryo roundtrip");
        assert_eq!(pos, kbuf.len());
        // Heap
        let mut heap = Heap::new(HeapConfig::small());
        let cls = T::register(&mut heap);
        let obj = rec.store(&mut heap, &cls).unwrap();
        assert_eq!(T::load(&heap, &cls, obj), rec, "heap graph roundtrip");
    }

    #[test]
    fn labeled_point_roundtrips() {
        roundtrip_all(LabeledPointRec { label: 1.0, features: vec![0.5, -2.5, 3.25] });
        roundtrip_all(LabeledPointRec { label: -1.0, features: vec![] });
    }

    #[test]
    fn labeled_point_sizes_match_figure_2() {
        let p = LabeledPointRec { label: 1.0, features: vec![0.0; 10] };
        // Decomposed: 8 + 80 = 88 bytes of raw data.
        assert_eq!(p.data_size(), 88);
        assert_eq!(LabeledPointRec::sfst_size(10), 88);
        // Heap graph: 32 + 40 + 96 = 168 bytes — the ~2x bloat of Figure 2.
        assert_eq!(p.heap_size(), 168);
    }

    #[test]
    fn adjacency_roundtrips() {
        roundtrip_all(AdjListRec { vertex: 7, neighbors: vec![1, 2, 3, 4, 5] });
        roundtrip_all(AdjListRec { vertex: 0, neighbors: vec![] });
    }

    #[test]
    fn sql_rows_roundtrip() {
        roundtrip_all(RankingRec { url_id: 123, page_rank: 77, avg_duration: 9 });
        roundtrip_all(UserVisitRec { ip_prefix: 0x3132333435, url_id: 5, ad_revenue: 0.75 });
        roundtrip_all(JoinAggRec { revenue: 1.5, rank_sum: 300.0, count: 4 });
    }

    #[test]
    fn join_agg_merge_and_byte_combine_agree() {
        let a = JoinAggRec { revenue: 1.0, rank_sum: 10.0, count: 1 };
        let b = JoinAggRec { revenue: 2.5, rank_sum: 20.0, count: 2 };
        let merged = a.merge(b);
        let mut acc = [0u8; 24];
        a.encode(&mut acc);
        let mut add = [0u8; 24];
        b.encode(&mut add);
        JoinAggRec::combine_bytes(&mut acc, &add);
        assert_eq!(JoinAggRec::decode(&acc), merged);
        assert_eq!(merged.count, 3);
    }

    #[test]
    fn lr_analysis_classifies_sfst() {
        use deca_udt::{Classification, SizeType, TypeRef};
        let f = lr_analysis();
        let c = deca_udt::classify_global(
            &f.types.registry,
            &f.program,
            f.stage_entry,
            TypeRef::Udt(f.types.labeled_point),
        );
        assert_eq!(c, Classification::Sized(SizeType::StaticFixed));
    }
}
