//! Property tests over the metrics attribution plumbing (on the
//! `deca-check` harness; 64 generated cases per property, shrinking):
//!
//! * the job-level recovery roll-up is exactly the sum of the per-stage
//!   roll-ups, for arbitrary fault seeds and cluster widths;
//! * `gc_ratio`'s numerator and denominator mean the same thing on every
//!   path that reports it — `LocalCluster::job_summary` (max-exec over
//!   executors, summed GC), `ClusterSession::job_summary`, and the
//!   `AppReport` accessor the Table 3 harness prints.
//!
//! These guard the invariants the run-trace exporter and the perf gate
//! read their numbers through.

use std::time::Duration;

use deca_apps::report::AppReport;
use deca_apps::run_job_on;
use deca_apps::wordcount::{self, WcParams};
use deca_check::property::{check, gens, Config};
use deca_check::{prop_assert, prop_assert_eq};
use deca_engine::{
    ClusterSession, ExecutionMode, ExecutorConfig, FaultPlan, FaultSpec, RetryPolicy,
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
        // Recovery time is accounted beside exec, never inside it: the
        // exec figure is the cluster's critical path, untouched by the
        // stage fold.
        prop_assert_eq!(job.exec, session.cluster().job_summary().exec);
        Ok(())
    });
}

/// `gc_ratio` means the same fraction on every reporting path: the
/// cluster summary's max-exec denominator and summed-GC numerator, the
/// session summary the apps embed, and the `AppReport` accessor that
/// the Table 3 harness formats.
#[test]
fn gc_ratio_denominators_agree_across_reporting_paths() {
    check(cfg(), gens::pair(gens::usize_in(0..3), gens::usize_in(1..5)), |&(m, executors)| {
        let mode = ExecutionMode::ALL[m];
        let params = wc_params(mode);
        let mut session =
            ClusterSession::new(executors, ExecutorConfig::new(mode, params.heap_bytes));
        let (checksum, _) =
            run_job_on(&wordcount::job(&params), &mut session).expect("fault-free run");

        let execs = &session.cluster().executors;
        let cluster_exec = execs.iter().map(|e| e.job.exec).max().unwrap();
        let cluster_gc: Duration = execs.iter().map(|e| e.job.gc).sum();
        let job = session.job_summary();
        prop_assert_eq!(job.exec, cluster_exec);
        prop_assert_eq!(job.gc, cluster_gc);
        // Stage rows fold the same task set, so GC attribution is
        // conserved between the per-stage and per-executor views.
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
