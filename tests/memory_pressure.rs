//! Behaviour under memory pressure: cache eviction, page-group swapping,
//! spill round-trips, and OOM recovery (Appendix C).

mod util;

use deca_apps::concomp::{self, CcParams};
use deca_apps::kmeans::{self, KmParams};
use deca_apps::logreg::{self, run_local, LrParams};
use deca_apps::pagerank::{self, PrParams};
use deca_apps::sql::{self, SqlParams, SqlQuery, SqlSystem};
use deca_apps::wordcount::{self, WcParams};
use deca_apps::{run_job_faulty, run_job_on};
use deca_engine::record::HeapRecord;
use deca_engine::{ClusterSession, ExecutionMode, Executor, ExecutorConfig, FaultPlan};

use util::TestDir;

#[test]
fn lr_survives_cache_larger_than_budget_in_all_modes() {
    let td = TestDir::executor_default();
    // Storage budget ~1.2MB; Spark cache needs ~3.4MB => eviction cycles.
    for mode in ExecutionMode::ALL {
        let p = LrParams {
            points: 20_000,
            dims: 10,
            iterations: 2,
            partitions: 8,
            heap_bytes: 24 << 20,
            storage_fraction: 0.05,
            mode,
            page_size: None,
            gc_algorithm: deca_heap::GcAlgorithm::ParallelScavenge,
            seed: 31,
            sample_timeline: false,
        };
        let r = run_local(&p, 1);
        assert!(r.checksum.is_finite(), "{mode}: result must be computed");
    }
    td.cleanup();
}

#[test]
fn evicted_results_match_resident_results() {
    let td = TestDir::executor_default();
    let mk = |storage: f64| LrParams {
        points: 12_000,
        dims: 10,
        iterations: 3,
        partitions: 6,
        heap_bytes: 24 << 20,
        storage_fraction: storage,
        mode: ExecutionMode::Spark,
        page_size: None,
        gc_algorithm: deca_heap::GcAlgorithm::ParallelScavenge,
        seed: 32,
        sample_timeline: false,
    };
    let resident = run_local(&mk(0.8), 1);
    let evicting = run_local(&mk(0.04), 1);
    assert!(
        (resident.checksum - evicting.checksum).abs() < 1e-12,
        "eviction round-trips (serialize -> disk -> deserialize) must not corrupt data"
    );
    assert!(evicting.metrics.io >= resident.metrics.io, "eviction shows up as disk time");
    td.cleanup();
}

#[test]
fn deca_swap_roundtrip_preserves_data() {
    let td = TestDir::executor_default();
    let mk = |storage: f64| LrParams {
        points: 12_000,
        dims: 10,
        iterations: 3,
        partitions: 6,
        heap_bytes: 24 << 20,
        storage_fraction: storage,
        mode: ExecutionMode::Deca,
        page_size: None,
        gc_algorithm: deca_heap::GcAlgorithm::ParallelScavenge,
        seed: 33,
        sample_timeline: false,
    };
    let resident = run_local(&mk(0.8), 1);
    let evicting = run_local(&mk(0.02), 1);
    assert!((resident.checksum - evicting.checksum).abs() < 1e-12);
    td.cleanup();
}

#[test]
fn lr_is_correct_under_every_collector() {
    let td = TestDir::executor_default();
    // End-to-end across PS (copy-compact), CMS (mark-sweep + free lists)
    // and G1 accounting: identical weights, saturated heap.
    let mut results = Vec::new();
    for algo in [
        deca_heap::GcAlgorithm::ParallelScavenge,
        deca_heap::GcAlgorithm::Cms,
        deca_heap::GcAlgorithm::G1,
    ] {
        let p = LrParams {
            points: 15_000,
            dims: 10,
            iterations: 4,
            partitions: 6,
            heap_bytes: 8 << 20, // saturating: collections will run
            storage_fraction: 0.6,
            mode: ExecutionMode::Spark,
            page_size: None,
            gc_algorithm: algo,
            seed: 34,
            sample_timeline: false,
        };
        results.push(run_local(&p, 1).checksum);
    }
    assert_eq!(results[0], results[1], "CMS (mark-sweep) must not corrupt data");
    assert_eq!(results[1], results[2]);
    td.cleanup();
}

#[test]
fn lr_on_a_tight_heap_completes_or_reports_memory_pressure_never_panics() {
    let td = TestDir::executor_default();
    // Two big partitions on one executor, heap swept down from a size
    // where every mode completes. 6 MB is the pinned point: there the
    // Spark kernel's per-point temporary vector is the allocation that
    // meets the full heap, which used to `expect` and surface as a task
    // panic. A full heap inside a kernel must instead be a typed
    // memory-pressure error the stage engine can spill-and-re-run on.
    let mut reference = None;
    for heap_mb in [8, 7, 6, 5] {
        for mode in ExecutionMode::ALL {
            let mut p = LrParams::small(mode);
            (p.points, p.iterations, p.partitions) = (25_000, 2, 2);
            (p.heap_bytes, p.storage_fraction) = (heap_mb << 20, 0.8);
            let config = logreg::lr_config(&p);
            match run_job_faulty(&logreg::job(&p), config, 1, FaultPlan::quiet(), None) {
                Ok(r) => assert_eq!(
                    r.checksum,
                    *reference.get_or_insert(r.checksum),
                    "{mode} at {heap_mb} MB: completed with the wrong weights"
                ),
                Err(e) => assert!(
                    e.is_memory_pressure(),
                    "{mode} at {heap_mb} MB: expected a memory-pressure error, got: {e}"
                ),
            }
        }
    }
    assert!(reference.is_some(), "the sweep starts at a size that completes");
    td.cleanup();
}

#[test]
fn pagerank_on_a_shrinking_heap_completes_or_reports_memory_pressure_never_panics() {
    let td = TestDir::executor_default();
    // The same sweep for PageRank, in 128 KB steps from a heap where every
    // mode completes. At 3840 KB the Spark map's combine, and at 3712 KB
    // its temporary message, is the allocation that meets the full heap;
    // both used to `expect` and surface as task panics. Below 3712 KB the
    // Spark adjacency build fails first, with a typed error. From 3200 KB
    // down, Deca's adjacency build meets a page budget the heap cannot
    // grant (`Mem(Oom)` inside the cache), which used to fail the job as a
    // fatal error. It is memory pressure too: the stage engine spills and
    // re-runs, and the re-run's grouping buffer then meets the full heap.
    let mut reference = None;
    for heap_kb in [4096, 3968, 3840, 3712, 3584, 3456, 3328, 3200, 3072, 2944, 2816] {
        for mode in ExecutionMode::ALL {
            let mut p = PrParams::small(mode);
            (p.vertices, p.edges, p.iterations, p.partitions) = (20_000, 100_000, 2, 2);
            p.heap_bytes = heap_kb << 10;
            let config = pagerank::pr_config(&p);
            match run_job_faulty(&pagerank::job(&p), config, 1, FaultPlan::quiet(), None) {
                Ok(r) => assert_eq!(
                    r.checksum,
                    *reference.get_or_insert(r.checksum),
                    "{mode} at {heap_kb} KB: completed with the wrong ranks"
                ),
                Err(e) => assert!(
                    e.is_memory_pressure(),
                    "{mode} at {heap_kb} KB: expected a memory-pressure error, got: {e}"
                ),
            }
        }
    }
    assert!(reference.is_some(), "the sweep starts at a size that completes");
    td.cleanup();
}

#[test]
fn concomp_on_a_shrinking_heap_completes_or_reports_memory_pressure_never_panics() {
    let td = TestDir::executor_default();
    // PageRank's sweep for ConnectedComponents, whose labels cross the
    // same combine-by-key shuffle, over the same adjacency cache, in
    // 256 KB steps from a heap where every mode completes. From 3584 KB
    // the Spark mode evicts adjacency blocks and restores them from their
    // Kryo bytes, each record's graph stored from its page form, on a heap
    // near its limit; a store there that meets the full heap used to leave
    // the part-filled block's `Object[]` rooted for good (one root left
    // after the 3584 KB job). Deca's adjacency build meets a page budget
    // the heap cannot grant from 2816 KB, and every mode's build fails at
    // 2304 KB, each with a typed error. Whatever the outcome, once the
    // job's cached blocks are released the executor holds no heap root and
    // no page group.
    let mut reference = None;
    let mut evicted = false;
    for heap_kb in [4096, 3584, 3072, 2816, 2560, 2304] {
        for mode in ExecutionMode::ALL {
            let mut p = CcParams::small(mode);
            (p.vertices, p.edges, p.max_iterations, p.partitions) = (20_000, 100_000, 2, 2);
            p.heap_bytes = heap_kb << 10;
            let mut session = ClusterSession::new(1, concomp::cc_config(&p));
            match run_job_on(&concomp::job(&p), &mut session) {
                Ok((checksum, _)) => assert_eq!(
                    checksum,
                    *reference.get_or_insert(checksum),
                    "{mode} at {heap_kb} KB: completed with the wrong labels"
                ),
                Err(e) => assert!(
                    e.is_memory_pressure(),
                    "{mode} at {heap_kb} KB: expected a memory-pressure error, got: {e}"
                ),
            }
            let e = &mut *session.executor(0);
            evicted |= mode == ExecutionMode::Spark && e.cache.evictions > 0;
            e.release_job_blocks(0);
            assert_eq!(
                (e.heap.root_count(), e.mm.live_groups()),
                (0, 0),
                "{mode} at {heap_kb} KB: [heap roots, live page groups] after the job"
            );
        }
    }
    assert!(reference.is_some(), "the sweep starts at a size that completes");
    assert!(evicted, "a Spark point evicts its cache and restores it");
    td.cleanup();
}

#[test]
fn kmeans_on_a_tight_heap_completes_or_reports_memory_pressure_never_panics() {
    let td = TestDir::executor_default();
    // The sweep for KMeans. At 6144 KB the Spark kernel's temporary
    // `(closest, 1.0)` pair is the allocation that meets the full heap; it
    // used to `expect` and surface as a task panic. At 1536 KB Deca's
    // load meets a page budget the heap cannot grant, which used to fail
    // the job as a fatal error.
    let mut reference = None;
    for heap_kb in [8192, 7168, 6144, 5120, 4096, 3072, 2048, 1536] {
        for mode in ExecutionMode::ALL {
            let mut p = KmParams::small(mode);
            (p.points, p.iterations, p.partitions) = (25_000, 2, 2);
            (p.heap_bytes, p.storage_fraction) = (heap_kb << 10, 0.8);
            let config = kmeans::km_config(&p);
            match run_job_faulty(&kmeans::job(&p), config, 1, FaultPlan::quiet(), None) {
                Ok(r) => assert_eq!(
                    r.checksum,
                    *reference.get_or_insert(r.checksum),
                    "{mode} at {heap_kb} KB: completed with the wrong centroids"
                ),
                Err(e) => assert!(
                    e.is_memory_pressure(),
                    "{mode} at {heap_kb} KB: expected a memory-pressure error, got: {e}"
                ),
            }
        }
    }
    assert!(reference.is_some(), "the sweep starts at a size that completes");
    td.cleanup();
}

#[test]
fn wordcount_on_a_tight_heap_fails_typed_and_leaves_no_combine_table() {
    let td = TestDir::executor_default();
    // The sweep for integer WordCount, 40 000 distinct words, from a heap
    // where every mode completes down to 256 KB, where every mode's map
    // fails (the Spark modes' from 1 MB, Deca's from 512 KB). A failed
    // task used to return through `?` before releasing its combine table:
    // Spark's rooted `Object[]` stayed reachable and Deca's page group had
    // no owner, one per attempt, for good on a long-lived executor.
    // Whatever the outcome, the executor afterwards holds no root and no
    // page group (WordCount caches nothing).
    let mut reference = None;
    for heap_kb in [8192, 2048, 1024, 512, 256] {
        for mode in ExecutionMode::ALL {
            let mut p = WcParams::small(mode);
            (p.words, p.distinct, p.partitions, p.heap_bytes) = (80_000, 40_000, 2, heap_kb << 10);
            let mut session = ClusterSession::new(1, wordcount::wc_config(&p));
            match run_job_on(&wordcount::job(&p), &mut session) {
                Ok((checksum, _)) => {
                    assert!(heap_kb > 256, "{mode} at {heap_kb} KB: the pinned point completed");
                    assert_eq!(
                        checksum,
                        *reference.get_or_insert(checksum),
                        "{mode} at {heap_kb} KB: completed with the wrong counts"
                    );
                }
                Err(e) => assert!(
                    e.is_memory_pressure(),
                    "{mode} at {heap_kb} KB: expected a memory-pressure error, got: {e}"
                ),
            }
            let e = session.executor(0);
            assert_eq!(
                (e.heap.root_count(), e.mm.live_groups()),
                (0, 0),
                "{mode} at {heap_kb} KB: [heap roots, live page groups] after the job"
            );
        }
    }
    assert!(reference.is_some(), "the sweep starts at a size that completes");
    td.cleanup();
}

#[test]
fn text_wordcount_on_a_tight_heap_fails_typed_and_leaves_no_combine_table() {
    let td = TestDir::executor_default();
    // The sweep for text WordCount, whose Spark modes store every token as
    // a `String` + `char[]` and key their table by it: an allocation that
    // meets the full heap while a token is inflated, or while a key is
    // stored in the table, must surface as a typed memory-pressure error.
    // The Spark modes' maps fail from 1 MB and Deca's at 256 KB, where
    // every mode fails. Every completed point matches the roomiest one's
    // checksum, and the executor afterwards holds no root and no page
    // group.
    let mut reference = None;
    for heap_kb in [8192, 2048, 1024, 512, 256] {
        for mode in ExecutionMode::ALL {
            let mut p = WcParams::small(mode);
            (p.words, p.distinct, p.partitions, p.heap_bytes) = (80_000, 40_000, 2, heap_kb << 10);
            let mut session = ClusterSession::new(1, wordcount::wc_config(&p));
            match run_job_on(&wordcount::text_job(&p), &mut session) {
                Ok((checksum, _)) => {
                    assert!(heap_kb > 256, "{mode} at {heap_kb} KB: the pinned point completed");
                    assert_eq!(
                        checksum,
                        *reference.get_or_insert(checksum),
                        "{mode} at {heap_kb} KB: completed with the wrong counts"
                    );
                }
                Err(e) => assert!(
                    e.is_memory_pressure(),
                    "{mode} at {heap_kb} KB: expected a memory-pressure error, got: {e}"
                ),
            }
            let e = session.executor(0);
            assert_eq!(
                (e.heap.root_count(), e.mm.live_groups()),
                (0, 0),
                "{mode} at {heap_kb} KB: [heap roots, live page groups] after the job"
            );
        }
    }
    assert!(reference.is_some(), "the sweep starts at a size that completes");
    td.cleanup();
}

#[test]
fn sql_on_a_shrinking_heap_completes_or_reports_memory_pressure_and_leaves_no_aggregate() {
    let td = TestDir::executor_default();
    // The sweep for SQL's two aggregates, Q2 and Q3, in all three systems,
    // from a heap where every cell completes down to 1 MB. A query attempt
    // that failed inside its aggregate used to return through `?` before
    // releasing the aggregate's table: Spark's rooted `Object[]` stayed
    // reachable (and a retry that then completed left it behind), and a
    // page table's group had no owner. Every completed point matches its
    // cell's roomiest checksum bit for bit. Whatever the outcome, once the
    // cache has evicted what it can, the executor holds no heap root and
    // one page group per Deca block: the blocks a failed query leaves
    // cached, and nothing else.
    for query in [SqlQuery::GroupBy, SqlQuery::Join] {
        for system in SqlSystem::ALL {
            let mut reference = None;
            for heap_kb in [24576, 8192, 4096, 3072, 2048, 1536, 1024] {
                let p = SqlParams {
                    rankings_rows: 5_000,
                    uservisits_rows: 20_000,
                    groups: 4_000,
                    partitions: 2,
                    heap_bytes: heap_kb << 10,
                    system,
                    seed: 77,
                };
                let cell = format!("{query:?} on {system:?} at {heap_kb} KB");
                let mut session = ClusterSession::new(1, sql::sql_config(&p));
                match run_job_on(&sql::job(&p, query), &mut session) {
                    Ok((checksum, _)) => assert_eq!(
                        checksum.to_bits(),
                        reference.get_or_insert(checksum).to_bits(),
                        "{cell}: completed with the wrong aggregate"
                    ),
                    Err(e) => assert!(
                        e.is_memory_pressure(),
                        "{cell}: expected a memory-pressure error, got: {e}"
                    ),
                }
                let e = &mut *session.executor(0);
                e.cache.evict_all(&mut e.heap, &mut e.kryo, &mut e.mm).expect("the cache evicts");
                assert_eq!(
                    (e.heap.root_count(), e.mm.live_groups()),
                    (0, e.cache.deca_blocks()),
                    "{cell}: [heap roots, live page groups] after the job"
                );
            }
            assert!(
                reference.is_some(),
                "{query:?} on {system:?}: the sweep starts where it completes"
            );
        }
    }
    td.cleanup();
}

#[test]
fn heap_oom_is_reported_not_corrupting() {
    let td = TestDir::executor_default();
    let mut exec = Executor::new(ExecutorConfig::new(ExecutionMode::Spark, 2 << 20));
    let classes = <(i64, i64) as HeapRecord>::register(&mut exec.heap);
    // Pin far more live data than the heap can hold.
    let mut stored = 0usize;
    let mut oom = false;
    for i in 0..200_000i64 {
        match (i, i).store(&mut exec.heap, &classes) {
            Ok(obj) => {
                exec.heap.add_root(obj);
                stored += 1;
            }
            Err(_) => {
                oom = true;
                break;
            }
        }
    }
    assert!(oom, "over-commit must surface as OomError");
    assert!(stored > 1_000, "a substantial prefix fit before OOM");
    td.cleanup();
}
