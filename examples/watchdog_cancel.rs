//! The robustness layer: hung-task watchdog, speculative execution, and
//! deadline-aware job cancellation.
//!
//! Run with `cargo run --release --example watchdog_cancel`. The code
//! below is the README's "Watchdog and cancellation" snippet — keep the
//! two in sync.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use deca_engine::{
    AppJob, ClusterSession, DecaServer, EngineError, ExecutionMode, ExecutorConfig, FaultPlan,
    FaultSite, JobSpec, RetryPolicy, SchedulerMode,
};

fn main() {
    // 1. The watchdog: an attempt that hangs (here force-injected) is
    //    timed out at the stage's task deadline, charged as a transient
    //    retry, and the fault-free retry completes the stage.
    let policy = RetryPolicy::resilient().task_deadline(Duration::from_millis(25));
    let mut session =
        ClusterSession::new(2, ExecutorConfig::new(ExecutionMode::Deca, 16 << 20).retry(policy));
    session.install_faults(FaultPlan::quiet().force(FaultSite::TaskHang, "sum", Some(1), Some(0)));
    let parts = session
        .run_stage("sum", 4, |t, _e| Ok((t.task + 1) as f64))
        .expect("the watchdog retries the hung attempt");
    session.finish_job();
    let m = session.job_summary();
    assert_eq!(parts.iter().sum::<f64>(), 10.0);
    assert_eq!((m.timeouts, m.retries), (1, 1));
    println!("watchdog: {} hung attempt timed out at its 25ms budget, retried, job green", 1);

    // 2. Speculative execution: under the Pull scheduler a running
    //    attempt that blows past the round's 2x-median threshold is
    //    duplicated on an idle executor; the first completion wins and
    //    the loser is cancelled cooperatively through its task context.
    let policy = RetryPolicy::resilient().speculate(true);
    let config = ExecutorConfig::new(ExecutionMode::Deca, 16 << 20)
        .retry(policy)
        .scheduler(SchedulerMode::Pull);
    let mut session = ClusterSession::new(2, config);
    let straggling = AtomicBool::new(false);
    let parts = session
        .run_stage("straggle", 8, |t, _e| {
            // The first copy of task 0 to start — on whichever executor
            // claimed it — straggles: it sleeps in slices, polling the
            // token the duplicate's win raises.
            if t.task == 0 && !straggling.swap(true, Ordering::SeqCst) {
                for _ in 0..5_000 {
                    if t.is_cancelled() {
                        return Err(EngineError::Cancelled { reason: "duplicate won".to_string() });
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            Ok((t.task + 1) as f64)
        })
        .expect("the duplicate's result completes the stage");
    session.finish_job();
    let m = session.job_summary();
    assert_eq!(parts.iter().sum::<f64>(), 36.0);
    assert!(m.speculative_launched >= 1 && m.speculative_wins >= 1);
    println!(
        "speculation: {} duplicate(s) launched, {} won the race, result unchanged",
        m.speculative_launched, m.speculative_wins
    );

    // 3. Job deadlines and cancellation on the server: an overdue job is
    //    cancelled before (or at the first boundary after) it runs, and
    //    `JobHandle::cancel` stops a running job cooperatively. Either
    //    way the partial roll-up stays reachable and every slot the job
    //    held — admission, claim-pool, cache — is released.
    let server = DecaServer::new(2, ExecutorConfig::new(ExecutionMode::Deca, 16 << 20));
    let overdue = server
        .submit(
            JobSpec::new("etl").deadline(Duration::ZERO).app(AppJob::new("late", |_ctx| Ok(1.0))),
        )
        .expect("admitted");
    let err = overdue.wait().expect_err("overdue before it started");
    assert!(err.to_string().contains("deadline"));
    assert_eq!(overdue.metrics().expect("partial roll-up").cancelled, 1);

    let spinner = AppJob::new("spin", |ctx| {
        ctx.run_stage("spin", 2, |t, _e| -> Result<(), EngineError> {
            while !t.is_cancelled() {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(EngineError::Cancelled { reason: "token observed".to_string() })
        })?;
        Ok(0.0)
    });
    let running = server.submit(JobSpec::new("etl").app(spinner)).expect("admitted");
    running.cancel();
    let err = running.wait().expect_err("cancelled mid-flight");
    println!("server: {err}");

    // The cancelled jobs released everything: the tenant's next job runs
    // to completion on the same server.
    let sum = AppJob::new("squares", |ctx| {
        let parts = ctx.run_stage("square", 8, |t, _e| Ok(((t.task + 1) as f64).powi(2)))?;
        Ok(parts.iter().sum())
    });
    let out = server.submit(JobSpec::new("etl").app(sum)).expect("slots freed").wait();
    assert_eq!(out.expect("job ran").checksum, 204.0);
    println!("post-cancel job completed: the cancelled jobs' slots were all released");
}
