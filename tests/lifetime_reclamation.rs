//! Lifetime-based reclamation invariants (§2.3, §4.2–§4.3): container
//! release returns the whole page budget without tracing; Spark-style
//! release requires a collection.

mod util;

use deca_core::{DecaCacheBlock, DecaHashShuffle};
use deca_engine::record::HeapRecord;
use deca_engine::{ExecutionMode, Executor, ExecutorConfig, SparkHashShuffle};
use deca_heap::{Heap, HeapConfig};

use util::TestDir;

#[test]
fn unpersist_releases_pages_immediately() {
    let td = TestDir::new("lifetime-unpersist");
    let mut heap = Heap::new(HeapConfig::small());
    let mut mm = td.mm(16 << 10);
    let mut block = DecaCacheBlock::new::<(f64, i64)>(&mut mm);
    for i in 0..10_000i64 {
        block.append(&mut mm, &mut heap, &(i as f64, i)).unwrap();
    }
    let occupied = heap.external_bytes();
    assert!(occupied > 100_000);
    let gcs_before = heap.stats().total_collections();
    block.release(&mut mm, &mut heap); // unpersist()
    assert_eq!(heap.external_bytes(), 0, "space returns at once");
    assert_eq!(
        heap.stats().total_collections(),
        gcs_before,
        "no collection was needed to reclaim the cache"
    );
    td.cleanup();
}

#[test]
fn spark_release_needs_a_collection() {
    let td = TestDir::executor_default();
    let mut exec = Executor::new(ExecutorConfig::new(ExecutionMode::Spark, 16 << 20));
    let mut buf: SparkHashShuffle<i64, i64> = SparkHashShuffle::new(&mut exec.heap).unwrap();
    for i in 0..5_000i64 {
        buf.insert(&mut exec.heap, i, 1, |a, b| a + b).unwrap();
    }
    let live_before = exec.heap.object_count();
    assert!(live_before > 10_000, "keys + values + table array live on the heap");
    buf.release(&mut exec.heap);
    assert!(
        exec.heap.object_count() >= live_before,
        "dropping the root reclaims nothing by itself"
    );
    exec.heap.full_gc();
    assert_eq!(exec.heap.object_count(), 0, "the collector must trace to reclaim");
    td.cleanup();
}

#[test]
fn shuffle_value_segment_reuse_avoids_growth() {
    let td = TestDir::new("lifetime-segment-reuse");
    let mut heap = Heap::new(HeapConfig::small());
    let mut mm = td.mm(16 << 10);
    let mut buf = DecaHashShuffle::new(&mut mm, 8, 8);
    // 50k combines into 10 keys: footprint stays one page.
    for i in 0..50_000i64 {
        let k = (i % 10).to_le_bytes();
        let v = 1i64.to_le_bytes();
        buf.insert(&mut mm, &mut heap, &k, &v, |acc, add| {
            let a = i64::from_le_bytes(acc[..8].try_into().unwrap());
            let b = i64::from_le_bytes(add[..8].try_into().unwrap());
            acc[..8].copy_from_slice(&(a + b).to_le_bytes());
        })
        .unwrap();
    }
    assert_eq!(heap.external_count(), 1, "ten 16-byte entries fit one page");
    assert_eq!(buf.combines, 50_000 - 10);
    buf.release(&mut mm, &mut heap);
    td.cleanup();
}

#[test]
fn executor_cache_release_by_mode() {
    let td = TestDir::executor_default();
    // Deca blocks free immediately; object blocks free at the next GC.
    for mode in [ExecutionMode::Spark, ExecutionMode::Deca] {
        let mut exec = Executor::new(ExecutorConfig::new(mode, 16 << 20));
        let classes = <(i64, i64) as HeapRecord>::register(&mut exec.heap);
        let recs: Vec<(i64, i64)> = (0..2_000).map(|i| (i, i)).collect();
        let id = match mode {
            ExecutionMode::Spark => exec
                .cache
                .put_objects(&mut exec.heap, &mut exec.kryo, &mut exec.mm, &classes, &recs)
                .unwrap(),
            ExecutionMode::Deca => {
                exec.cache.put_deca(&mut exec.heap, &mut exec.mm, &recs).unwrap()
            }
            _ => unreachable!(),
        };
        exec.cache.release(id, &mut exec.heap, &mut exec.mm);
        match mode {
            ExecutionMode::Deca => assert_eq!(exec.heap.external_bytes(), 0),
            _ => {
                exec.heap.full_gc();
                assert_eq!(exec.heap.object_count(), 0);
            }
        }
    }
    td.cleanup();
}
