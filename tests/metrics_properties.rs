//! Property tests over the metrics attribution plumbing (on the
//! `deca-check` harness; 64 generated cases per property, shrinking):
//!
//! * the job-level recovery roll-up is exactly the sum of the per-stage
//!   roll-ups, for arbitrary fault seeds and cluster widths;
//! * `gc_ratio`'s numerator and denominator mean the same thing on every
//!   path that reports it — the per-stage rows (summed GC),
//!   `ClusterSession::job_summary` (the job's one roll-up; executors keep
//!   no per-job metrics), and the `AppReport` accessor the Table 3
//!   harness prints;
//!
//! and one identity over every app: a fresh session's job summary is the
//! sum of its executors' lifetime work counters, so no attempt, re-run or
//! restart does work outside a record the job folds.
//!
//! These guard the invariants the run-trace exporter and the benchmark
//! read their numbers through.

use std::time::Duration;

use deca_apps::report::AppReport;
use deca_apps::run_job_on;
use deca_apps::wordcount::{self, WcParams};
use deca_apps::{concomp, kmeans, logreg, pagerank, sql};
use deca_check::property::{check, gens, Config};
use deca_check::{prop_assert, prop_assert_eq};
use deca_engine::{
    AppJob, ClusterSession, ExecutionMode, ExecutorConfig, FaultPlan, FaultSite, FaultSpec,
    JobMetrics, RetryPolicy, SchedulerMode, Work,
};

fn cfg() -> Config {
    Config::with_cases(64)
}

fn wc_params(mode: ExecutionMode) -> WcParams {
    WcParams {
        words: 8_000,
        distinct: 400,
        partitions: 4,
        heap_bytes: 16 << 20,
        mode,
        seed: 7,
        sample_every: 0,
    }
}

fn mode_for(seed: u64) -> ExecutionMode {
    ExecutionMode::ALL[(seed % 3) as usize]
}

/// A survivable scatter (mirrors the fault-tolerance suite's storm).
fn storm() -> FaultSpec {
    FaultSpec {
        task_body: 0.35,
        executor_crash: 0.10,
        shuffle_frame: 0.20,
        alloc: 0.15,
        spill_path: 0.0,
        task_hang: 0.0,
        repeat_on_retry: false,
    }
}

/// For any fault seed and width, `ClusterSession::job_summary`'s
/// recovery counters are exactly the sum of the per-stage rows — no
/// counter is dropped, double-folded, or attributed past its stage.
#[test]
fn job_recovery_rollup_equals_sum_of_stage_rollups() {
    check(cfg(), gens::pair(gens::any_u32(), gens::usize_in(1..5)), |&(seed, executors)| {
        let mode = mode_for(seed as u64);
        let params = wc_params(mode);
        let config = ExecutorConfig::new(mode, params.heap_bytes).retry(RetryPolicy::resilient());
        let mut session = ClusterSession::new(executors, config);
        session.install_faults(FaultPlan::seeded(seed as u64, storm()));
        run_job_on(&wordcount::job(&params), &mut session).expect("storm plans are survivable");

        let job = session.job_summary();
        let stages = session.stages();
        prop_assert!(!stages.is_empty());
        let sum =
            |f: &dyn Fn(&deca_engine::StageMetrics) -> u64| -> u64 { stages.iter().map(f).sum() };
        prop_assert_eq!(job.attempts, sum(&|s| s.attempts));
        prop_assert_eq!(job.retries, sum(&|s| s.retries));
        prop_assert_eq!(job.quarantines, sum(&|s| s.quarantines));
        prop_assert_eq!(job.restarts, sum(&|s| s.restarts));
        prop_assert_eq!(job.oom_reruns, sum(&|s| s.oom_reruns));
        prop_assert_eq!(job.oom_recoveries, sum(&|s| s.oom_recoveries));
        prop_assert_eq!(job.recovery, stages.iter().map(|s| s.recovery).sum::<Duration>());
        // Every stage completed, so the physical-runs identity holds
        // stage-by-stage and therefore job-wide.
        prop_assert_eq!(
            job.attempts,
            stages.iter().map(|s| s.tasks as u64).sum::<u64>() + job.retries + job.oom_reruns
        );
        Ok(())
    });
}

/// `gc_ratio` means the same fraction on every reporting path: the
/// session summary's max-exec denominator and summed-GC numerator, which
/// the apps embed, and the `AppReport` accessor that the Table 3 harness
/// formats.
#[test]
fn gc_ratio_denominators_agree_across_reporting_paths() {
    check(cfg(), gens::pair(gens::usize_in(0..3), gens::usize_in(1..5)), |&(m, executors)| {
        let mode = ExecutionMode::ALL[m];
        let params = wc_params(mode);
        let mut session =
            ClusterSession::new(executors, ExecutorConfig::new(mode, params.heap_bytes));
        let (checksum, _) =
            run_job_on(&wordcount::job(&params), &mut session).expect("fault-free run");

        let job = session.job_summary();
        let (cluster_exec, cluster_gc) = (job.exec, job.gc);
        // Stage rows fold the same task set, so GC attribution is
        // conserved between the per-stage rows and the job's roll-up.
        prop_assert_eq!(session.stages().iter().map(|s| s.gc).sum::<Duration>(), cluster_gc);

        // The Table 3 harness reads the ratio through AppReport; it must
        // be the same gc/exec fraction, denominator included.
        let report = AppReport::from_cluster("WC", &session, checksum, 0);
        prop_assert!(report.metrics.exec > Duration::ZERO);
        let expect = cluster_gc.as_secs_f64() / cluster_exec.as_secs_f64();
        prop_assert!(
            (report.gc_ratio() - expect).abs() < 1e-12,
            "AppReport ratio {} drifted from cluster ratio {expect}",
            report.gc_ratio()
        );
        prop_assert!(
            (job.gc_ratio() - expect).abs() < 1e-12,
            "session ratio {} drifted from cluster ratio {expect}",
            job.gc_ratio()
        );
        Ok(())
    });
}

/// Every app at a tier-1 size in `mode`, with the configuration it runs
/// under, on heaps small enough that the Spark jobs collect.
fn every_app(mode: ExecutionMode) -> Vec<(AppJob, ExecutorConfig)> {
    const HEAP: usize = 4 << 20;
    let wc = WcParams { words: 20_000, distinct: 1_000, heap_bytes: HEAP, ..wc_params(mode) };
    let mut lr = logreg::LrParams::small(mode);
    (lr.points, lr.iterations, lr.partitions) = (5_000, 2, 4);
    let mut km = kmeans::KmParams::small(mode);
    (km.points, km.iterations, km.partitions) = (5_000, 2, 4);
    let mut pr = pagerank::PrParams::small(mode);
    (pr.vertices, pr.edges, pr.iterations) = (1_000, 10_000, 2);
    let mut cc = concomp::CcParams::small(mode);
    (cc.vertices, cc.edges, cc.max_iterations) = (1_000, 8_000, 3);
    let system = match mode {
        ExecutionMode::Spark => sql::SqlSystem::Spark,
        ExecutionMode::SparkSer => sql::SqlSystem::SparkSql,
        ExecutionMode::Deca => sql::SqlSystem::Deca,
    };
    let mut q = sql::SqlParams::small(system);
    (q.rankings_rows, q.uservisits_rows, q.groups) = (8_000, 12_000, 500);
    (lr.heap_bytes, km.heap_bytes, pr.heap_bytes, cc.heap_bytes, q.heap_bytes) =
        (HEAP, HEAP, HEAP, HEAP, HEAP);
    let mut jobs = vec![
        (wordcount::job(&wc), wordcount::wc_config(&wc)),
        (wordcount::text_job(&wc), wordcount::wc_config(&wc)),
        (logreg::job(&lr), logreg::lr_config(&lr)),
        (kmeans::job(&km), kmeans::km_config(&km)),
        (pagerank::job(&pr), pagerank::pr_config(&pr)),
        (concomp::job(&cc), concomp::cc_config(&cc)),
    ];
    jobs.extend(sql::SqlQuery::ALL.map(|query| (sql::job(&q, query), sql::sql_config(&q))));
    jobs
}

/// Run `app` on a fresh session and check the job's work against its
/// executors' lifetime counters: the counts always, and — when every
/// second of executor work was a task's (`times`) — the GC, serde and
/// shuffle time too. A restart's collections are the job's, but its time
/// is no task's.
fn assert_work_identity(
    app: &AppJob,
    config: ExecutorConfig,
    (width, scheduler): (usize, SchedulerMode),
    (label, plan): (&str, FaultPlan),
    times: bool,
) -> JobMetrics {
    let cell = format!("{} {} width {width} {scheduler:?}, {label} plan", app.name(), config.mode);
    let mut session = ClusterSession::new(width, config.scheduler(scheduler));
    session.install_faults(plan);
    run_job_on(app, &mut session).unwrap_or_else(|e| panic!("{cell}: {e}"));
    let job = session.job_summary();
    let lifetime: Vec<Work> = (0..width).map(|i| session.executor(i).work()).collect();
    let count = |f: fn(&Work) -> u64| lifetime.iter().map(f).sum::<u64>();
    let time = |f: fn(&Work) -> Duration| lifetime.iter().map(f).sum::<Duration>();
    assert_eq!(
        [job.minor_gcs, job.full_gcs, job.objects_traced],
        [count(|w| w.minor_gcs), count(|w| w.full_gcs), count(|w| w.objects_traced)],
        "{cell}: [minor, full, objects traced] against the executors' lifetime counts"
    );
    if times {
        let got =
            [job.gc, job.gc_concurrent, job.ser, job.deser, job.shuffle_read, job.shuffle_write];
        let want = [
            time(|w| w.gc_pause),
            time(|w| w.gc_concurrent),
            time(|w| w.ser),
            time(|w| w.deser),
            time(|w| w.shuffle_read),
            time(|w| w.shuffle_write),
        ];
        assert_eq!(got, want, "{cell}: [gc, concurrent, ser, deser, shuffle read, write]");
    }
    job
}

/// Widths 1 and 2 under both schedulers.
const IDENTITY_CELLS: [(usize, SchedulerMode); 4] = [
    (1, SchedulerMode::Wave),
    (1, SchedulerMode::Pull),
    (2, SchedulerMode::Wave),
    (2, SchedulerMode::Pull),
];

/// A job's summary is one fold of its runs' work records: on a fresh
/// session it equals the sum of the executors' lifetime counters, for
/// every app and mode, a forced OOM re-run (whose spill and collection
/// are the re-run's) and a forced executor restart included.
#[test]
fn job_work_is_the_sum_of_executor_lifetime_counters() {
    for mode in ExecutionMode::ALL {
        let mut collections = 0;
        for (app, config) in every_app(mode) {
            for cell in IDENTITY_CELLS {
                let job = assert_work_identity(
                    &app,
                    config.clone(),
                    cell,
                    ("quiet", FaultPlan::quiet()),
                    true,
                );
                collections += job.minor_gcs + job.full_gcs;
            }
        }
        if mode == ExecutionMode::Spark {
            assert!(collections > 0, "the Spark jobs collect, so the identity is not vacuous");
        }
        let wc = wc_params(mode);
        let config = wordcount::wc_config(&wc).retry(RetryPolicy::resilient());
        let oom = FaultPlan::quiet().force(FaultSite::Alloc, "wc-map", Some(1), Some(0));
        let crash = FaultPlan::quiet().force(FaultSite::ExecutorCrash, "wc-map", Some(0), Some(0));
        let wc_job = wordcount::job(&wc);
        for cell in IDENTITY_CELLS {
            let job =
                assert_work_identity(&wc_job, config.clone(), cell, ("oom", oom.clone()), true);
            assert_eq!(job.oom_reruns, 1, "{mode}: the forced OOM re-ran in place");
            let job = assert_work_identity(
                &wc_job,
                config.clone(),
                cell,
                ("crash", crash.clone()),
                false,
            );
            // A lone executor is restarted in place; of two, the crashed
            // one is quarantined.
            assert_eq!(job.restarts, (cell.0 == 1) as u64, "{mode}: restarts at {cell:?}");
        }
    }
}
