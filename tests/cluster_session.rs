//! Cluster-mode cross-mode equivalence: the same WordCount and PageRank
//! jobs through [`deca_engine::ClusterSession`] produce identical results
//! in Spark, SparkSer, and Deca mode, independent of executor count.
//!
//! The driver makes this a hard guarantee, not a tolerance: tasks are
//! pinned to executors round-robin by task index and the exchange hands
//! reduce tasks their inputs in map-task order, so the floating-point
//! addition sequence per key is a function of the partitioning alone.

use deca_apps::logreg::{self, LrParams};
use deca_apps::pagerank::{self, PrParams};
use deca_apps::wordcount::{self, WcParams};
use deca_apps::{run_job_local, run_job_on};
use deca_engine::{ClusterSession, ExecutionMode, ExecutorConfig, SchedulerMode, TraceEventKind};

const EXECUTOR_COUNTS: [usize; 3] = [1, 2, 4];

fn wc_params(mode: ExecutionMode) -> WcParams {
    WcParams {
        words: 30_000,
        distinct: 800,
        partitions: 4,
        heap_bytes: 16 << 20,
        mode,
        seed: 42,
        sample_every: 0,
    }
}

fn pr_params(mode: ExecutionMode) -> PrParams {
    PrParams {
        vertices: 600,
        edges: 5_000,
        iterations: 3,
        partitions: 4,
        heap_bytes: 24 << 20,
        mode,
        gc_algorithm: deca_heap::GcAlgorithm::ParallelScavenge,
        storage_fraction: 0.4,
        seed: 9,
    }
}

#[test]
fn wordcount_is_identical_across_modes_and_widths() {
    // Word checksums are integer-valued f64 sums (< 2^53): exact under
    // any addition order, so every cell of the mode × width matrix must
    // be bit-identical.
    let reference = wordcount::run_local(&wc_params(ExecutionMode::Spark), 1).checksum;
    assert!(reference > 0.0);
    for mode in ExecutionMode::ALL {
        for executors in EXECUTOR_COUNTS {
            let report = wordcount::run_local(&wc_params(mode), executors);
            assert_eq!(report.checksum, reference, "{mode} on {executors} executors");
            assert_eq!(report.mode, mode);
        }
    }
}

#[test]
fn text_wordcount_is_identical_across_modes_and_widths() {
    let text = |mode, executors| {
        let p = wc_params(mode);
        run_job_local(&wordcount::text_job(&p), wordcount::wc_config(&p), executors)
    };
    let reference = text(ExecutionMode::Deca, 1).checksum;
    assert!(reference > 0.0);
    for mode in ExecutionMode::ALL {
        for executors in EXECUTOR_COUNTS {
            let report = text(mode, executors);
            assert_eq!(report.checksum, reference, "{mode} on {executors} executors");
        }
    }
}

#[test]
fn pagerank_is_bit_identical_across_widths_per_mode() {
    // f64 rank sums are order-sensitive; the driver's fixed task model
    // must make the executor count invisible bit-for-bit.
    for mode in ExecutionMode::ALL {
        let reference = pagerank::run_local(&pr_params(mode), 1).checksum;
        assert!(reference > 0.0);
        for executors in EXECUTOR_COUNTS {
            let report = pagerank::run_local(&pr_params(mode), executors);
            assert_eq!(report.checksum, reference, "{mode} on {executors} executors");
        }
    }
}

fn lr_params(mode: ExecutionMode) -> LrParams {
    let mut p = LrParams::small(mode);
    p.points = 2_000;
    p.dims = 8;
    p.iterations = 3;
    p.partitions = 4;
    p.heap_bytes = 16 << 20;
    p
}

#[test]
fn logreg_is_bit_identical_across_widths_per_mode() {
    // LR sums per-task partial gradients in task order, so — like
    // PageRank — the executor count must be invisible bit-for-bit.
    for mode in ExecutionMode::ALL {
        let reference = logreg::run_local(&lr_params(mode), 1).checksum;
        assert!(reference.is_finite() && reference > 0.0);
        for executors in EXECUTOR_COUNTS {
            let report = logreg::run_local(&lr_params(mode), executors);
            assert_eq!(report.checksum, reference, "{mode} on {executors} executors");
        }
    }
}

#[test]
fn logreg_modes_agree_at_every_width() {
    for executors in EXECUTOR_COUNTS {
        let spark = logreg::run_local(&lr_params(ExecutionMode::Spark), executors).checksum;
        let ser = logreg::run_local(&lr_params(ExecutionMode::SparkSer), executors).checksum;
        let deca = logreg::run_local(&lr_params(ExecutionMode::Deca), executors).checksum;
        assert!((spark - deca).abs() < 1e-12, "{executors} executors: {spark} vs {deca}");
        assert!((ser - deca).abs() < 1e-12, "{executors} executors: {ser} vs {deca}");
    }
}

#[test]
fn pagerank_modes_agree_at_every_width() {
    for executors in EXECUTOR_COUNTS {
        let spark = pagerank::run_local(&pr_params(ExecutionMode::Spark), executors).checksum;
        let ser = pagerank::run_local(&pr_params(ExecutionMode::SparkSer), executors).checksum;
        let deca = pagerank::run_local(&pr_params(ExecutionMode::Deca), executors).checksum;
        assert!((spark - deca).abs() < 1e-9, "{executors} executors: {spark} vs {deca}");
        assert!((ser - deca).abs() < 1e-9, "{executors} executors: {ser} vs {deca}");
    }
}

#[test]
fn pull_scheduler_matches_wave_bit_for_bit_at_every_mode_and_width() {
    // The pull scheduler removes the per-wave barrier but not the
    // determinism contract: results are collected by task index and
    // reduces still see map outputs in map-task order, so every cell of
    // the mode × width matrix must agree bit-for-bit with the Wave run —
    // and run the same number of physical attempts.
    for mode in ExecutionMode::ALL {
        for executors in EXECUTOR_COUNTS {
            let p = wc_params(mode);
            let run_wc = |sched: SchedulerMode| {
                let mut session =
                    ClusterSession::new(executors, wordcount::wc_config(&p).scheduler(sched));
                let (checksum, _) =
                    run_job_on(&wordcount::job(&p), &mut session).expect("wordcount job");
                let steals = session
                    .merged_trace()
                    .events
                    .iter()
                    .filter(|e| e.kind == TraceEventKind::TaskSteal)
                    .count();
                (checksum, session.job_summary().attempts, steals)
            };
            let (wave, wave_attempts, wave_steals) = run_wc(SchedulerMode::Wave);
            let (pull, pull_attempts, _) = run_wc(SchedulerMode::Pull);
            assert_eq!(wave, pull, "WC {mode} on {executors} executors: schedulers disagree");
            assert_eq!(wave_attempts, pull_attempts, "WC {mode} on {executors} executors");
            assert_eq!(wave_steals, 0, "Wave must never emit TaskSteal events");

            let pr = pr_params(mode);
            let run_pr = |sched: SchedulerMode| {
                let mut session =
                    ClusterSession::new(executors, pagerank::pr_config(&pr).scheduler(sched));
                let (checksum, _) =
                    run_job_on(&pagerank::job(&pr), &mut session).expect("pagerank job");
                (checksum, session.job_summary().attempts)
            };
            let (wave, wave_attempts) = run_pr(SchedulerMode::Wave);
            let (pull, pull_attempts) = run_pr(SchedulerMode::Pull);
            assert_eq!(wave, pull, "PR {mode} on {executors} executors: schedulers disagree");
            assert_eq!(wave_attempts, pull_attempts, "PR {mode} on {executors} executors");
        }
    }
}

#[test]
fn heterogeneous_heaps_do_not_change_results() {
    // A mixed cluster — one big-heap and one small-heap executor — runs
    // more GC and spill work on the small node, but the task model keeps
    // the answer bit-identical to the uniform cluster.
    fn mixed_configs(mode: ExecutionMode, heaps: &[usize]) -> Vec<ExecutorConfig> {
        heaps
            .iter()
            .map(|&h| {
                ExecutorConfig::builder()
                    .mode(mode)
                    .heap_bytes(h)
                    .shuffle_fraction(0.6)
                    .storage_fraction(0.2)
                    .build()
            })
            .collect()
    }
    for mode in ExecutionMode::ALL {
        let p = wc_params(mode);
        let uniform = wordcount::run_local(&p, 2).checksum;

        let mut session = ClusterSession::with_configs(mixed_configs(mode, &[24 << 20, 8 << 20]));
        let (mixed, _) =
            run_job_on(&wordcount::job(&p), &mut session).expect("wordcount on mixed heaps");
        assert_eq!(mixed, uniform, "{mode}: mixed 24MB/8MB heaps changed the checksum");

        let pr = pr_params(mode);
        let pr_uniform = pagerank::run_local(&pr, 2).checksum;
        let mut session = ClusterSession::with_configs(
            [32 << 20, 12 << 20]
                .iter()
                .map(|&h| {
                    ExecutorConfig::builder()
                        .mode(mode)
                        .heap_bytes(h)
                        .storage_fraction(pr.storage_fraction)
                        .gc(pr.gc_algorithm)
                        .build()
                })
                .collect(),
        );
        let (pr_mixed, _) =
            run_job_on(&pagerank::job(&pr), &mut session).expect("pagerank on mixed heaps");
        assert_eq!(pr_mixed, pr_uniform, "{mode}: mixed 32MB/12MB heaps changed the ranks");
    }
}

#[test]
fn merged_timeline_spans_executors() {
    // Spark-mode map tasks sample the Tuple2 census on their own
    // executors; the cluster report merges the per-executor timelines.
    let mut p = wc_params(ExecutionMode::Spark);
    p.sample_every = 500;
    let report = wordcount::run_local(&p, 2);
    assert!(!report.timeline.samples.is_empty());
    assert!(report.timeline.peak_live() > 0, "temporary tuples were observed live");
    assert!(report.slowest_task.is_some());
}
