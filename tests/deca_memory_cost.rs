//! Deca's memory-management costs are fixed by the job: which page groups
//! it creates and releases, how many pages and bytes each holds, what its
//! shuffles hand over and exchange, and what its cache swaps out and back
//! in. None of that depends on how fast the Rust around it runs, so a
//! change to how a record is declared, encoded or walked must leave every
//! count below as it was.
//!
//! Each app runs in Deca on one executor under the pull scheduler (so no
//! steal moves work between memory managers), traced, with the sizes
//! `spark_memory_cost.rs` uses. PageRank runs under `pr-pressure`'s
//! near-zero storage budget, so its adjacency blocks swap out and back in
//! every iteration. A combine table that grows releases the group it
//! outgrew, so the released-group counts also pin the tables' growths.
//! The values were recorded from the commit before the app records became
//! one declaration each; ConnectedComponents' from the commit before the
//! four combine-by-key jobs shared one shuffle path.

mod util;

use deca_apps::concomp::{self, CcParams};
use deca_apps::logreg::{self, LrParams};
use deca_apps::pagerank::{self, PrParams};
use deca_apps::run_job_on;
use deca_apps::wordcount::{self, WcParams};
use deca_engine::{
    AppJob, ClusterSession, ExecutionMode, ExecutorConfig, SchedulerMode, TraceEventKind,
};
use deca_heap::GcAlgorithm;

use util::TestDir;

const DECA: ExecutionMode = ExecutionMode::Deca;

fn wc_params() -> WcParams {
    let mut p = WcParams::small(DECA);
    (p.words, p.distinct, p.heap_bytes) = (60_000, 3_000, 8 << 20);
    p
}

fn wc() -> (AppJob, ExecutorConfig) {
    let p = wc_params();
    (wordcount::job(&p), wordcount::wc_config(&p))
}

fn wc_text() -> (AppJob, ExecutorConfig) {
    let p = wc_params();
    (wordcount::text_job(&p), wordcount::wc_config(&p))
}

fn lr() -> (AppJob, ExecutorConfig) {
    let mut p = LrParams::small(DECA);
    (p.points, p.iterations, p.heap_bytes, p.storage_fraction) = (30_000, 3, 8 << 20, 0.62);
    (logreg::job(&p), logreg::lr_config(&p))
}

/// PageRank under `pr-pressure`'s near-zero storage budget.
fn pr_spilling() -> (AppJob, ExecutorConfig) {
    let mut p = PrParams::small(DECA);
    (p.vertices, p.edges, p.iterations, p.heap_bytes) = (2_000, 20_000, 3, 8 << 20);
    p.storage_fraction = 0.0001;
    (pagerank::job(&p), pagerank::pr_config(&p))
}

fn cc() -> (AppJob, ExecutorConfig) {
    let mut p = CcParams::small(DECA);
    (p.vertices, p.edges, p.max_iterations, p.heap_bytes) = (2_000, 20_000, 4, 8 << 20);
    (concomp::job(&p), concomp::cc_config(&p))
}

/// What one run did with its pages.
#[derive(Debug, PartialEq, Eq)]
struct DecaCost {
    /// Page groups released: `[groups, pages, bytes]`.
    released: [u64; 3],
    /// Shuffle runs handed over without a copy: `[runs, pages, bytes]`.
    handed_over: [u64; 3],
    /// Per stage, in run order: `(name, shuffle_bytes, shuffle_pages)`.
    stages: Vec<(String, u64, u64)>,
    /// The job's cached footprint, as the job notes it after its load
    /// stage.
    cache_bytes: usize,
    /// The cached blocks' `[records, record bytes]`, as their pages hold
    /// them at job end.
    cached: [u64; 2],
    /// The cache's `[spill_write_bytes, spill_read_bytes]` (its own block
    /// files, none in Deca), then the memory manager's `[spill_write_bytes,
    /// spill_read_bytes, swap_outs, swap_ins]`.
    spill: [u64; 6],
}

fn run_alone(build: fn() -> (AppJob, ExecutorConfig)) -> DecaCost {
    let td = TestDir::executor_default();
    let (app, config) = build();
    let config = config
        .gc_algorithm(GcAlgorithm::ParallelScavenge)
        .scheduler(SchedulerMode::Pull)
        .tracing(true);
    let mut session = ClusterSession::new(1, config);
    let (_, cache_bytes) = run_job_on(&app, &mut session).expect("the job completes");
    let trace = session.merged_trace();
    let tally = |kind| {
        trace
            .of_kind(kind)
            .fold([0; 3], |[n, pages, bytes], ev| [n + 1, pages + ev.count, bytes + ev.bytes])
    };
    let mut released = tally(TraceEventKind::PageGroupRelease);
    let handed_over = tally(TraceEventKind::PageHandover);
    let stages = session
        .stages()
        .iter()
        .map(|s| (s.name.clone(), s.shuffle_bytes, s.shuffle_pages))
        .collect();
    let e = &mut *session.executor(0);
    // Releases after the job's last task (its blocks, at job end) are
    // still in the manager's log.
    for r in e.mm.take_release_events() {
        released = [released[0] + 1, released[1] + r.pages as u64, released[2] + r.bytes as u64];
    }
    let mm = &e.mm;
    let spill = [
        e.cache.spill_write_bytes,
        e.cache.spill_read_bytes,
        mm.spill_write_bytes,
        mm.spill_read_bytes,
        mm.swap_outs,
        mm.swap_ins,
    ];
    let mut cached = [0; 2];
    for b in e.cache.blocks_of_job(0) {
        let (heap, mm) = (&mut e.heap, &mut e.mm);
        e.cache
            .deca_block(b)
            .scan_bytes(
                mm,
                heap,
                |bytes| bytes.len() as u64,
                |n| cached = [cached[0] + 1, cached[1] + n],
            )
            .expect("the block reads back");
    }
    let cost = DecaCost { released, handed_over, stages, cache_bytes, cached, spill };
    td.cleanup();
    cost
}

fn stages(rows: &[(&str, u64, u64)]) -> Vec<(String, u64, u64)> {
    rows.iter().map(|&(name, bytes, pages)| (name.to_string(), bytes, pages)).collect()
}

#[test]
fn wordcount_pages_as_recorded() {
    let want = DecaCost {
        released: [8, 8, 524_288],
        handed_over: [16, 16, 127_808],
        stages: stages(&[("wc-map", 127_808, 16), ("wc-reduce", 0, 0)]),
        cache_bytes: 0,
        cached: [0, 0],
        spill: [0; 6],
    };
    assert_eq!(run_alone(wc), want);
}

#[test]
fn text_wordcount_pages_as_recorded() {
    let want = DecaCost {
        released: [8, 8, 524_288],
        handed_over: [16, 16, 172_558],
        stages: stages(&[("wct-map", 172_558, 16), ("wct-reduce", 0, 0)]),
        cache_bytes: 0,
        cached: [0, 0],
        spill: [0; 6],
    };
    assert_eq!(run_alone(wc_text), want);
}

#[test]
fn logreg_pages_as_recorded() {
    let want = DecaCost {
        released: [0, 0, 0],
        handed_over: [0, 0, 0],
        stages: stages(&[
            ("lr-load", 0, 0),
            ("lr-iter0", 0, 0),
            ("lr-iter1", 0, 0),
            ("lr-iter2", 0, 0),
        ]),
        cache_bytes: 3_145_728,
        cached: [30_000, 2_640_000],
        spill: [0; 6],
    };
    assert_eq!(run_alone(lr), want);
}

#[test]
fn spilling_pagerank_pages_as_recorded() {
    let want = DecaCost {
        released: [24, 24, 1_572_864],
        handed_over: [48, 48, 237_648],
        stages: stages(&[
            ("adj-build", 0, 0),
            ("pr-iter0-map", 79_216, 16),
            ("pr-iter0-reduce", 0, 0),
            ("pr-iter1-map", 79_216, 16),
            ("pr-iter1-reduce", 0, 0),
            ("pr-iter2-map", 79_216, 16),
            ("pr-iter2-reduce", 0, 0),
        ]),
        cache_bytes: 262_144,
        cached: [1_880, 95_040],
        spill: [0, 0, 196_608, 196_608, 3, 3],
    };
    assert_eq!(run_alone(pr_spilling), want);
}

#[test]
fn concomp_pages_as_recorded() {
    let want = DecaCost {
        released: [32, 32, 2_097_152],
        handed_over: [64, 64, 363_456],
        stages: stages(&[
            ("adj-build", 0, 0),
            ("cc-iter0-map", 90_864, 16),
            ("cc-iter0-reduce", 0, 0),
            ("cc-iter1-map", 90_864, 16),
            ("cc-iter1-reduce", 0, 0),
            ("cc-iter2-map", 90_864, 16),
            ("cc-iter2-reduce", 0, 0),
            ("cc-iter3-map", 90_864, 16),
            ("cc-iter3-reduce", 0, 0),
        ]),
        cache_bytes: 262_144,
        cached: [1_904, 95_232],
        spill: [0; 6],
    };
    assert_eq!(run_alone(cc), want);
}
