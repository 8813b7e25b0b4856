//! The Spark baselines pay the JVM's memory-management costs, and only
//! those: what a Spark-mode kernel allocates on the heap — every record
//! object, every Value object a combine replaces, every rooted array — and
//! the collections that allocation causes are fixed by the job, not by how
//! fast the Rust around it runs. Each app below runs in Spark and SparkSer
//! on one executor (so no pull steal moves work between heaps) and must
//! allocate exactly the objects and bytes, and run exactly the minor and
//! full collections, recorded below from the commit before the Spark
//! buffers took Deca's hash, borrowed-key probes and typed array access.
//!
//! Under a storage budget far below the cached set, the cache's tier
//! traffic is fixed by the job too: LR and PageRank there must demote,
//! spill and read back exactly the blocks and bytes recorded from the
//! commit before `byte[]` copies went word-wide and the spill digest became
//! the word hash — besides allocating and collecting as recorded.

mod util;

use deca_apps::logreg::{self, LrParams};
use deca_apps::pagerank::{self, PrParams};
use deca_apps::run_job_on;
use deca_apps::wordcount::{self, WcParams};
use deca_engine::{AppJob, ClusterSession, ExecutionMode, ExecutorConfig, SchedulerMode};
use deca_heap::GcAlgorithm;

use util::TestDir;

const SPARK_MODES: [ExecutionMode; 2] = [ExecutionMode::Spark, ExecutionMode::SparkSer];

fn wc_params(mode: ExecutionMode) -> WcParams {
    let mut p = WcParams::small(mode);
    (p.words, p.distinct, p.heap_bytes) = (60_000, 3_000, 8 << 20);
    p
}

fn wc(mode: ExecutionMode) -> (AppJob, ExecutorConfig) {
    let p = wc_params(mode);
    (wordcount::job(&p), wordcount::wc_config(&p))
}

fn wc_text(mode: ExecutionMode) -> (AppJob, ExecutorConfig) {
    let p = wc_params(mode);
    (wordcount::text_job(&p), wordcount::wc_config(&p))
}

fn lr(mode: ExecutionMode) -> (AppJob, ExecutorConfig) {
    let mut p = LrParams::small(mode);
    // The cache nearly fills the old generation: Spark runs a full GC.
    (p.points, p.iterations, p.heap_bytes, p.storage_fraction) = (30_000, 3, 8 << 20, 0.62);
    (logreg::job(&p), logreg::lr_config(&p))
}

fn pr_params(mode: ExecutionMode) -> PrParams {
    let mut p = PrParams::small(mode);
    (p.vertices, p.edges, p.iterations, p.heap_bytes) = (2_000, 20_000, 3, 8 << 20);
    p
}

fn pr(mode: ExecutionMode) -> (AppJob, ExecutorConfig) {
    let p = pr_params(mode);
    (pagerank::job(&p), pagerank::pr_config(&p))
}

/// LR with a storage budget a fifth of its cached set's: Spark blocks
/// demote to the warm tier and both modes spill and read back every
/// iteration.
fn lr_spilling(mode: ExecutionMode) -> (AppJob, ExecutorConfig) {
    let mut p = LrParams::small(mode);
    (p.points, p.iterations, p.heap_bytes, p.storage_fraction) = (30_000, 3, 16 << 20, 0.05);
    (logreg::job(&p), logreg::lr_config(&p))
}

/// PageRank under `pr-pressure`'s near-zero storage budget.
fn pr_spilling(mode: ExecutionMode) -> (AppJob, ExecutorConfig) {
    let mut p = pr_params(mode);
    p.storage_fraction = 0.0001;
    (pagerank::job(&p), pagerank::pr_config(&p))
}

/// One run on one executor, under the stop-the-world default collector
/// (the concurrent ones race a marker thread, so their counts need not
/// repeat): `[objects_allocated, bytes_allocated, minor_gcs, full_gcs]`
/// and the cache's `[evictions, demotions, spill_write_bytes,
/// spill_read_bytes]`.
fn run_alone(
    build: fn(ExecutionMode) -> (AppJob, ExecutorConfig),
    mode: ExecutionMode,
) -> ([u64; 4], [u64; 4]) {
    let (app, config) = build(mode);
    let config = config.gc_algorithm(GcAlgorithm::ParallelScavenge).scheduler(SchedulerMode::Pull);
    let mut session = ClusterSession::new(1, config);
    run_job_on(&app, &mut session).expect("the job completes");
    let e = &session.cluster().executors[0];
    let (s, c) = (e.heap_stats(), e.cache.stats());
    (
        [s.objects_allocated, s.bytes_allocated, s.minor_collections, s.full_collections],
        [c.evictions, c.demotions, c.spill_write_bytes, c.spill_read_bytes],
    )
}

fn same_heap_cost(build: fn(ExecutionMode) -> (AppJob, ExecutorConfig), want: [[u64; 4]; 2]) {
    let td = TestDir::executor_default();
    let got = SPARK_MODES.map(|mode| run_alone(build, mode).0);
    assert_eq!(got, want, "[objects, bytes, minor GCs, full GCs] in [Spark, SparkSer]");
    td.cleanup();
}

/// `want` is `[heap cost, cache traffic]` per mode, in [Spark, SparkSer].
fn same_heap_and_cache_cost(
    build: fn(ExecutionMode) -> (AppJob, ExecutorConfig),
    want: [[[u64; 4]; 2]; 2],
) {
    let td = TestDir::executor_default();
    let got = SPARK_MODES.map(|mode| {
        let (heap, cache) = run_alone(build, mode);
        [heap, cache]
    });
    assert_eq!(got, want, "[heap cost, cache traffic] in [Spark, SparkSer]");
    td.cleanup();
}

#[test]
fn wordcount_allocates_and_collects_as_recorded() {
    same_heap_cost(wc, [[258_850, 6_954_448, 3, 0], [258_850, 6_954_448, 3, 0]]);
}

#[test]
fn text_wordcount_allocates_and_collects_as_recorded() {
    same_heap_cost(wc_text, [[209_700, 6_751_080, 3, 0], [209_700, 6_751_080, 3, 0]]);
}

#[test]
fn logreg_allocates_and_collects_as_recorded() {
    same_heap_cost(lr, [[191_260, 14_921_416, 6, 1], [270_008, 17_850_176, 8, 0]]);
}

#[test]
fn pagerank_allocates_and_collects_as_recorded() {
    same_heap_cost(pr, [[302_565, 8_985_072, 4, 0], [298_805, 8_843_424, 3, 0]]);
}

#[test]
fn spilling_logreg_moves_the_cache_as_recorded() {
    same_heap_and_cache_cost(
        lr_spilling,
        [
            [[450_039, 32_149_416, 7, 0], [31, 7, 10_578_750, 8_190_000]],
            [[270_032, 26_040_704, 5, 0], [30, 0, 10_237_500, 8_190_000]],
        ],
    );
}

#[test]
fn spilling_pagerank_moves_the_cache_as_recorded() {
    same_heap_and_cache_cost(
        pr_spilling,
        [
            [[313_860, 9_588_912, 4, 0], [15, 3, 178_603, 142_083]],
            [[298_817, 8_985_744, 4, 0], [15, 0, 178_603, 142_083]],
        ],
    );
}
