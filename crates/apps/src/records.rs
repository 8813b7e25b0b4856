//! Workload UDTs, each declared once with [`deca_engine::record!`], which
//! emits its three physical representations and its `deca-udt` descriptor
//! for the optimizer.
//!
//! * [`LabeledPointRec`] — the paper's running example (Figure 1):
//!   `LabeledPoint { label: Double, features: DenseVector { data: double[] } }`.
//!   SFST when the dimension is a global constant.
//! * [`AdjListRec`] — PageRank/CC adjacency: `VertexEdges { id, edges: int[] }`.
//!   RFST (per-vertex degree fixed after the grouping phase — §3.4).
//! * [`RankingRec`] / [`UserVisitRec`] — the §6.6 table rows.
//! * [`JoinAggRec`] — the join query's per-group aggregate.

use deca_engine::EngineError;
use deca_udt::fixtures::{group_by_program_over, lr_program_over, GroupByProgram, GroupTypes};
use deca_udt::fixtures::{LrProgram, LrTypes, UnknownField};
use deca_udt::TypeRegistry;

deca_engine::record! {
    /// A labeled feature vector (LR / KMeans cache records).
    #[derive(Clone, Debug, PartialEq)]
    pub struct LabeledPointRec as "LabeledPoint" {
        pub label: f64 as "label",
        pub features: [f64] as "features" in "DenseVector" of "double[]",
    }
}

impl LabeledPointRec {
    /// Page bytes for dimension `d`: `label`, then `data[0..d]`. The
    /// wrapper's offset, stride and length are not stored; no kernel reads
    /// them.
    pub fn sfst_size(d: usize) -> usize {
        8 + 8 * d
    }
}

deca_engine::record! {
    /// One vertex's adjacency list. Its page bytes keep a `u32` neighbor
    /// count before the neighbors.
    #[derive(Clone, Debug, PartialEq)]
    pub struct AdjListRec as "VertexEdges" {
        pub vertex: u32 as "id",
        pub neighbors: [u32] as "edges" of "int[]" counted,
    }
}

deca_engine::record! {
    /// A row of the `rankings` table (pageURL modelled as a synthetic id).
    #[derive(Copy, Clone, Debug, PartialEq)]
    pub struct RankingRec as "Ranking" {
        pub url_id: i64 as "urlId",
        pub page_rank: i32 as "pageRank",
        pub avg_duration: i32 as "avgDuration",
    }
}

deca_engine::record! {
    /// A row of the `uservisits` table (sourceIP prefix packed into an i64).
    #[derive(Copy, Clone, Debug, PartialEq)]
    pub struct UserVisitRec as "UserVisit" {
        pub ip_prefix: i64 as "ipPrefix",
        pub url_id: i64 as "urlId",
        pub ad_revenue: f64 as "adRevenue",
    }
}

deca_engine::record! {
    /// Per-group aggregate of the join query (SQL Query 3, an extension):
    /// revenue sum, pageRank sum, and row count (to derive AVG). An SFST of
    /// 24 bytes.
    #[derive(Copy, Clone, Debug, PartialEq, Default)]
    pub struct JoinAggRec as "JoinAgg" {
        pub revenue: f64 as "revenue",
        pub rank_sum: f64 as "rankSum",
        pub count: i64 as "count",
    }
}

impl JoinAggRec {
    pub fn merge(self, other: JoinAggRec) -> JoinAggRec {
        JoinAggRec {
            revenue: self.revenue + other.revenue,
            rank_sum: self.rank_sum + other.rank_sum,
            count: self.count + other.count,
        }
    }
}

/// A join group's aggregate combines in a table as one value, `merge`.
impl crate::combine::Value for JoinAggRec {
    type Bytes = [u8; 24];
}

// =====================================================================
// What the optimizer analyses: the stage programs over the declared types
// =====================================================================

fn unknown_field(e: UnknownField) -> EngineError {
    EngineError::Plan(e.to_string())
}

/// The LR caching stage (Figure 1) over the types `LabeledPointRec`
/// declares. A field the program names that the declaration lacks is
/// [`EngineError::Plan`].
pub(crate) fn lr_plan_input() -> Result<LrProgram, EngineError> {
    let mut registry = TypeRegistry::new();
    let labeled_point = LabeledPointRec::describe(&mut registry);
    Ok(lr_program_over(LrTypes::resolve(registry, labeled_point).map_err(unknown_field)?))
}

/// [`lr_plan_input`], for callers outside a job: the analysis every Deca
/// LR job plans its cache from.
pub fn lr_analysis() -> LrProgram {
    lr_plan_input().expect("LabeledPointRec declares Figure 1's fields")
}

/// The graph jobs' grouping program (§3.4) over the types `AdjListRec`
/// declares: the group-by grows `edges` while it builds a vertex's list.
pub(crate) fn adjacency_analysis() -> Result<GroupByProgram, EngineError> {
    let mut registry = TypeRegistry::new();
    let vertex = AdjListRec::describe(&mut registry);
    Ok(group_by_program_over(
        GroupTypes::resolve(registry, vertex, "edges").map_err(unknown_field)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use deca_core::DecaRecord;
    use deca_engine::record::{Elements, HeapRecord, KryoRecord, OnHeap, Page, View};
    use deca_heap::{Heap, HeapConfig, ObjRef};

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
        let before = heap.stats().bytes_allocated;
        let obj = rec.store(&mut heap, &cls).unwrap();
        assert_eq!(T::load(&heap, &cls, obj), rec, "heap graph roundtrip");
        let stored = heap.stats().bytes_allocated - before;
        assert_eq!(rec.heap_size() as u64, stored, "heap_size is what store allocates");
    }

    /// Hand `check` the two views of `rec`: `heap_fields` of its stored
    /// graph and `fields` of its page bytes.
    fn with_views<T: View>(
        rec: &T,
        check: impl FnOnce(T::Fields<'_, OnHeap>, T::Fields<'_, Page>),
    ) {
        let mut heap = Heap::new(HeapConfig::small());
        let cls = T::register(&mut heap);
        let obj = rec.store(&mut heap, &cls).unwrap();
        let mut page = vec![0u8; rec.data_size()];
        rec.encode(&mut page);
        check(T::heap_fields(&heap, &cls, obj), T::fields(&page));
    }

    /// Each heap record allocates its objects in the JVM's order, read off
    /// their eden offsets (eden bump-allocates): an array before the
    /// object that holds it, and boxes before their `Tuple2`. The graph is
    /// exactly the objects listed, innermost first.
    #[test]
    fn heap_records_allocate_their_objects_innermost_first() {
        fn assert_order<T: HeapRecord>(rec: T, graph: impl Fn(&Heap, ObjRef) -> Vec<ObjRef>) {
            let mut heap = Heap::new(HeapConfig::small());
            let cls = T::register(&mut heap);
            let before = heap.stats().objects_allocated;
            let obj = rec.store(&mut heap, &cls).unwrap();
            let objects = graph(&heap, obj);
            assert_eq!(heap.stats().objects_allocated - before, objects.len() as u64);
            let names: Vec<&str> =
                objects.iter().map(|&o| heap.registry().get(heap.class_of(o)).name()).collect();
            let offsets: Vec<usize> =
                objects.iter().map(|&o| heap.eden_offset(o).expect("born in eden")).collect();
            assert!(offsets.is_sorted(), "{names:?} allocated at {offsets:?}");
        }
        assert_order(String::from("w12xx"), |h, s| vec![h.read_ref(s, 0), s]);
        assert_order(String::from("\u{e9}\u{1f600}"), |h, s| vec![h.read_ref(s, 0), s]);
        let lp = LabeledPointRec { label: 1.0, features: vec![0.5, -2.5] };
        assert_order(lp, |h, lp| {
            let vector = h.read_ref(lp, 1);
            vec![h.read_ref(vector, 0), vector, lp]
        });
        assert_order(AdjListRec { vertex: 3, neighbors: vec![1, 2] }, |h, v| {
            vec![h.read_ref(v, 1), v]
        });
        assert_order((7i64, 1i64), |h, t| vec![h.read_ref(t, 0), h.read_ref(t, 1), t]);
        assert_order((7i64, 0.5f64), |h, t| vec![h.read_ref(t, 0), h.read_ref(t, 1), t]);
    }

    /// Page and Kryo bytes, byte for byte as the records wrote them before
    /// they were declared: LR without a length, the adjacency with its
    /// `u32` count, integers as plain varints and `f64`s raw.
    #[test]
    fn declared_bytes_are_the_recorded_layouts() {
        fn bytes<T: DecaRecord + KryoRecord>(rec: &T) -> (Vec<u8>, Vec<u8>) {
            let mut page = vec![0u8; rec.data_size()];
            rec.encode(&mut page);
            let mut kryo = Vec::new();
            rec.kryo_encode(&mut kryo);
            (page, kryo)
        }
        let le = |parts: &[&[u8]]| parts.concat();
        let lp = LabeledPointRec { label: 1.5, features: vec![-2.0] };
        let f = |x: f64| x.to_le_bytes();
        assert_eq!(bytes(&lp), (le(&[&f(1.5), &f(-2.0)]), le(&[&f(1.5), &[1], &f(-2.0)])));
        let adj = AdjListRec { vertex: 300, neighbors: vec![1, 2] };
        let page = le(&[
            &300u32.to_le_bytes(),
            &2u32.to_le_bytes(),
            &1u32.to_le_bytes(),
            &2u32.to_le_bytes(),
        ]);
        assert_eq!(bytes(&adj), (page, vec![0xac, 0x02, 2, 1, 2]));
        let row = RankingRec { url_id: -1, page_rank: -1, avg_duration: 9 };
        let page = le(&[&(-1i64).to_le_bytes(), &(-1i32).to_le_bytes(), &9i32.to_le_bytes()]);
        let kryo = le(&[&[0xff; 9], &[0x01], &[0xff; 4], &[0x0f], &[9]]);
        assert_eq!(bytes(&row), (page, kryo));
        let visit = UserVisitRec { ip_prefix: 1, url_id: 2, ad_revenue: 0.5 };
        let page = le(&[&1i64.to_le_bytes(), &2i64.to_le_bytes(), &f(0.5)]);
        assert_eq!(bytes(&visit), (page, le(&[&[1, 2], &f(0.5)])));
        let agg = JoinAggRec { revenue: 0.5, rank_sum: 2.0, count: 3 };
        let page = le(&[&f(0.5), &f(2.0), &3i64.to_le_bytes()]);
        assert_eq!(bytes(&agg), (page, le(&[&f(0.5), &f(2.0), &[3]])));
        assert_eq!(
            [RankingRec::FIXED_SIZE, UserVisitRec::FIXED_SIZE, JoinAggRec::FIXED_SIZE],
            [Some(16), Some(24), Some(24)]
        );
        assert_eq!([LabeledPointRec::FIXED_SIZE, AdjListRec::FIXED_SIZE], [None, None]);
    }

    #[test]
    fn labeled_point_roundtrips() {
        for lp in [
            LabeledPointRec { label: 1.0, features: vec![0.5, -2.5, 3.25] },
            LabeledPointRec { label: -1.0, features: vec![] },
        ] {
            roundtrip_all(lp.clone());
            with_views(&lp, |heap, page| {
                let heap = (heap.label, heap.features.iter().collect::<Vec<_>>());
                let page = (page.label, page.features.iter().collect::<Vec<_>>());
                assert_eq!(heap, (lp.label, lp.features.clone()), "heap view");
                assert_eq!(page, heap, "page view");
            });
        }
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
        for adj in [
            AdjListRec { vertex: 7, neighbors: vec![1, 2, 3, 4, 5] },
            AdjListRec { vertex: 0, neighbors: vec![] },
        ] {
            roundtrip_all(adj.clone());
            with_views(&adj, |heap, page| {
                let heap = (heap.vertex, heap.neighbors.iter().collect::<Vec<_>>());
                let page = (page.vertex, page.neighbors.iter().collect::<Vec<_>>());
                assert_eq!(heap, (adj.vertex, adj.neighbors.clone()), "heap view");
                assert_eq!(page, heap, "page view");
            });
        }
    }

    #[test]
    fn sql_rows_roundtrip() {
        // A record without an array is its own view.
        let row = RankingRec { url_id: 123, page_rank: 77, avg_duration: 9 };
        roundtrip_all(row);
        with_views(&row, |heap, page| assert_eq!([heap, page], [row; 2]));
        let visit = UserVisitRec { ip_prefix: 0x3132333435, url_id: 5, ad_revenue: 0.75 };
        roundtrip_all(visit);
        with_views(&visit, |heap, page| assert_eq!([heap, page], [visit; 2]));
        let agg = JoinAggRec { revenue: 1.5, rank_sum: 300.0, count: 4 };
        roundtrip_all(agg);
        with_views(&agg, |heap, page| assert_eq!([heap, page], [agg; 2]));
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
        crate::combine::combine_bytes(JoinAggRec::merge)(&mut acc, &add);
        assert_eq!(JoinAggRec::decode(&acc), merged);
        assert_eq!(merged.count, 3);
    }

    /// The graph jobs plan the record they cache, `VertexEdges { id: int,
    /// edges: int[] }`, and decompose it on copy (§4.3.3).
    #[test]
    fn the_adjacency_plan_analyses_vertex_edges_and_decomposes_on_copy() {
        use deca_core::{ContainerDecision, ContainerInfo, Optimizer};
        use deca_udt::{ContainerId, ContainerKind, JobPhases, TypeRef};
        let g = adjacency_analysis().unwrap();
        let vertex = g.registry.udt(g.group);
        let fields: Vec<_> = vertex.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(
            (vertex.name.as_str(), fields.as_slice()),
            ("VertexEdges", &["id", "edges"][..])
        );
        assert_eq!(g.registry.array(g.value_array).name, "int[]");
        let opt = Optimizer::new(&g.registry, &g.program);
        let phases =
            JobPhases::new().phase("combine", g.build_entry).phase("iterate", g.read_entry);
        let container = |id, kind| ContainerInfo {
            id: ContainerId(id),
            kind,
            created_seq: id,
            content: TypeRef::Udt(g.group),
            write_phase: 0,
        };
        let containers =
            [container(0, ContainerKind::ShuffleBuffer), container(1, ContainerKind::CachedRdd)];
        let plan = opt.plan(&phases, &containers, &[]);
        assert_eq!(plan.decision(ContainerId(1)), &ContainerDecision::DecomposeOnCopy);
    }

    /// A program that names a field its record does not declare is a plan
    /// error, not a guess.
    #[test]
    fn a_field_the_declaration_lacks_is_a_plan_error() {
        let mut registry = TypeRegistry::new();
        let vertex = AdjListRec::describe(&mut registry);
        let err = GroupTypes::resolve(registry, vertex, "values").map_err(unknown_field);
        assert!(matches!(err, Err(EngineError::Plan(m)) if m.contains("`values`")));
        let mut registry = TypeRegistry::new();
        let row = RankingRec::describe(&mut registry);
        let err = LrTypes::resolve(registry, row).map_err(unknown_field);
        assert!(matches!(err, Err(EngineError::Plan(m)) if m.contains("`features`")));
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
