//! The Spark baselines pay the JVM's memory-management costs, and only
//! those: what a Spark-mode kernel allocates on the heap — every record
//! object, every Value object a combine replaces, every rooted array — and
//! the collections that allocation causes are fixed by the job, not by how
//! fast the Rust around it runs. Each app below runs in Spark and SparkSer
//! on one executor (so no pull steal moves work between heaps) and must
//! allocate exactly the objects and bytes, and run exactly the minor and
//! full collections, recorded below from the commit before the Spark
//! buffers took Deca's hash, borrowed-key probes and typed array access.
//! The collectors' work is pinned beside it — the objects they trace, the
//! bytes minor collections copy and the bytes they promote, recorded from
//! the commit before the heap's mutator fast path — so a faster mutator
//! cannot pass while changing what a collection does.
//!
//! Under a storage budget far below the cached set, the cache's tier
//! traffic is fixed by the job too: LR and PageRank there must demote,
//! spill and read back exactly the blocks and bytes recorded from the
//! commit before `byte[]` copies went word-wide and the spill digest became
//! the word hash — besides allocating and collecting as recorded.
//!
//! Every run also writes exactly the shuffle bytes recorded per stage: the
//! Kryo wire form of each combined record, from the commit before the four
//! combine-by-key jobs shared one shuffle path. ConnectedComponents joined
//! the pinned jobs at that commit too.

mod util;

use deca_apps::concomp::{self, CcParams};
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

fn cc(mode: ExecutionMode) -> (AppJob, ExecutorConfig) {
    let mut p = CcParams::small(mode);
    (p.vertices, p.edges, p.max_iterations, p.heap_bytes) = (2_000, 20_000, 4, 8 << 20);
    (concomp::job(&p), concomp::cc_config(&p))
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
/// repeat): `[objects_allocated, bytes_allocated, minor_gcs, full_gcs,
/// objects_traced, bytes_copied, bytes_promoted]`, the cache's
/// `[evictions, demotions, spill_write_bytes, spill_read_bytes]`, and each
/// stage's `(name, shuffle_bytes)` in run order.
fn run_alone(
    build: fn(ExecutionMode) -> (AppJob, ExecutorConfig),
    mode: ExecutionMode,
) -> ([u64; 7], [u64; 4], Vec<(String, u64)>) {
    let (app, config) = build(mode);
    let config = config.gc_algorithm(GcAlgorithm::ParallelScavenge).scheduler(SchedulerMode::Pull);
    let mut session = ClusterSession::new(1, config);
    run_job_on(&app, &mut session).expect("the job completes");
    let stages = session.stages().iter().map(|s| (s.name.clone(), s.shuffle_bytes)).collect();
    let e = &session.cluster().executors[0];
    let (s, c) = (e.heap_stats(), e.cache.stats());
    (
        [
            s.objects_allocated,
            s.bytes_allocated,
            s.minor_collections,
            s.full_collections,
            s.objects_traced,
            s.bytes_copied,
            s.bytes_promoted,
        ],
        [c.evictions, c.demotions, c.spill_write_bytes, c.spill_read_bytes],
        stages,
    )
}

/// `stages` as `run_alone` returns them.
fn stages(rows: &[(&str, u64)]) -> Vec<(String, u64)> {
    rows.iter().map(|&(name, bytes)| (name.to_string(), bytes)).collect()
}

/// `shuffled` is every stage's `(name, shuffle_bytes)`, the same in both
/// modes.
fn same_heap_cost(
    build: fn(ExecutionMode) -> (AppJob, ExecutorConfig),
    want: [[u64; 7]; 2],
    shuffled: &[(&str, u64)],
) {
    let td = TestDir::executor_default();
    let runs = SPARK_MODES.map(|mode| run_alone(build, mode));
    let got = runs.each_ref().map(|r| r.0);
    assert_eq!(
        got, want,
        "[objects, bytes, minor GCs, full GCs, traced, copied, promoted] in [Spark, SparkSer]"
    );
    for (mode, run) in SPARK_MODES.iter().zip(&runs) {
        assert_eq!(run.2, stages(shuffled), "{mode}: (stage, shuffle bytes)");
    }
    td.cleanup();
}

/// `want` is `(heap cost, cache traffic)` per mode, in [Spark, SparkSer];
/// `shuffled` as [`same_heap_cost`]'s.
fn same_heap_and_cache_cost(
    build: fn(ExecutionMode) -> (AppJob, ExecutorConfig),
    want: [([u64; 7], [u64; 4]); 2],
    shuffled: &[(&str, u64)],
) {
    let td = TestDir::executor_default();
    let runs = SPARK_MODES.map(|mode| run_alone(build, mode));
    let got = runs.each_ref().map(|r| (r.0, r.1));
    assert_eq!(got, want, "[heap cost, cache traffic] in [Spark, SparkSer]");
    for (mode, run) in SPARK_MODES.iter().zip(&runs) {
        assert_eq!(run.2, stages(shuffled), "{mode}: (stage, shuffle bytes)");
    }
    td.cleanup();
}

#[test]
fn wordcount_allocates_and_collects_as_recorded() {
    same_heap_cost(
        wc,
        [
            [258_850, 6_954_448, 3, 0, 5_590, 199_680, 0],
            [258_850, 6_954_448, 3, 0, 5_590, 199_680, 0],
        ],
        &[("wc-map", 39_867), ("wc-reduce", 0)],
    );
}

#[test]
fn text_wordcount_allocates_and_collects_as_recorded() {
    same_heap_cost(
        wc_text,
        [
            [209_700, 6_751_080, 3, 0, 11_043, 429_808, 0],
            [209_700, 6_751_080, 3, 0, 11_043, 429_808, 0],
        ],
        &[("wct-map", 124_740), ("wct-reduce", 0)],
    );
}

#[test]
fn logreg_allocates_and_collects_as_recorded() {
    same_heap_cost(
        lr,
        [
            [191_260, 14_921_416, 6, 1, 202_179, 11_779_480, 5_940_144],
            [270_008, 17_850_176, 8, 0, 8, 2_730_176, 2_730_176],
        ],
        &[("lr-load", 0), ("lr-iter0", 0), ("lr-iter1", 0), ("lr-iter2", 0)],
    );
}

#[test]
fn pagerank_allocates_and_collects_as_recorded() {
    same_heap_cost(
        pr,
        [
            [302_565, 8_985_072, 4, 0, 15_762, 756_432, 189_088],
            [298_805, 8_843_424, 3, 0, 5_932, 366_296, 47_440],
        ],
        &[
            ("adj-build", 0),
            ("pr-iter0-map", 59_316),
            ("pr-iter0-reduce", 0),
            ("pr-iter1-map", 59_316),
            ("pr-iter1-reduce", 0),
            ("pr-iter2-map", 59_316),
            ("pr-iter2-reduce", 0),
        ],
    );
}

#[test]
fn spilling_logreg_moves_the_cache_as_recorded() {
    same_heap_and_cache_cost(
        lr_spilling,
        [
            (
                [450_039, 32_149_416, 7, 0, 43_133, 2_595_352, 194_208],
                [31, 7, 10_578_750, 8_190_000],
            ),
            ([270_032, 26_040_704, 5, 0, 10, 2_730_368, 1_706_360], [30, 0, 10_237_500, 8_190_000]),
        ],
        &[("lr-load", 0), ("lr-iter0", 0), ("lr-iter1", 0), ("lr-iter2", 0)],
    );
}

#[test]
fn spilling_pagerank_moves_the_cache_as_recorded() {
    same_heap_and_cache_cost(
        pr_spilling,
        [
            ([313_860, 9_588_912, 4, 0, 9_523, 408_336, 0], [15, 3, 178_603, 142_083]),
            ([298_817, 8_985_744, 4, 0, 5_408, 259_600, 0], [15, 0, 178_603, 142_083]),
        ],
        &[
            ("adj-build", 0),
            ("pr-iter0-map", 59_316),
            ("pr-iter0-reduce", 0),
            ("pr-iter1-map", 59_316),
            ("pr-iter1-reduce", 0),
            ("pr-iter2-map", 59_316),
            ("pr-iter2-reduce", 0),
        ],
    );
}

#[test]
fn concomp_allocates_and_collects_as_recorded() {
    same_heap_cost(
        cc,
        [
            [720_660, 20_091_848, 8, 0, 22_700, 931_688, 190_792],
            [716_852, 19_948_544, 8, 0, 17_711, 780_168, 47_488],
        ],
        &[
            ("adj-build", 0),
            ("cc-iter0-map", 32_587),
            ("cc-iter0-reduce", 0),
            ("cc-iter1-map", 28_568),
            ("cc-iter1-reduce", 0),
            ("cc-iter2-map", 28_268),
            ("cc-iter2-reduce", 0),
            ("cc-iter3-map", 28_267),
            ("cc-iter3-reduce", 0),
        ],
    );
}
