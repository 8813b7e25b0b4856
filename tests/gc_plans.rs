//! GC-plan equivalence matrix: a garbage collector reclaims memory, it
//! never computes. Every [`GcPlanKind`] — copying, sweeping, or racing
//! the mutator with a concurrent marker — must therefore produce
//! bit-identical application results at every execution mode, executor
//! width, and fault seed, and the recovery roll-up a faulted job charges
//! must not depend on which scheduler drained the plan's collections.
//!
//! Seeds replay exactly (`FaultPlan::seeded`); on failure the assert
//! message names the (plan, mode, width, seed) cell to re-run.

mod util;

use deca_apps::pagerank::{self, PrParams};
use deca_apps::wordcount::{self, WcParams};
use deca_apps::{run_job_faulty, run_job_on};
use deca_engine::{
    ClusterSession, ExecutionMode, FaultPlan, FaultSpec, JobMetrics, RetryPolicy, SchedulerMode,
};
use deca_heap::GcPlanKind;
use util::TestDir;

const WIDTHS: [usize; 3] = [1, 2, 4];

/// The pinned fault trio the fault-tolerance matrices use; pinned here
/// too so a plan that corrupts recovery bookkeeping fails on the same
/// replayable seeds.
const FAULT_SEEDS: [u64; 3] = [11, 29, 47];

/// Survivable scatter covering every injection site that interacts with
/// the heap (alloc faults force OOM re-runs mid-collection; crashes
/// rebuild cached blocks from lineage under whichever plan is active).
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

fn wc_params(mode: ExecutionMode) -> WcParams {
    WcParams {
        words: 20_000,
        distinct: 600,
        partitions: 4,
        heap_bytes: 16 << 20,
        mode,
        seed: 42,
        sample_every: 0,
    }
}

fn pr_params(mode: ExecutionMode) -> PrParams {
    PrParams {
        vertices: 400,
        edges: 3_000,
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
fn wordcount_is_bit_identical_across_plans_widths_and_fault_seeds() {
    let td = TestDir::executor_default();
    for mode in [ExecutionMode::Spark, ExecutionMode::Deca] {
        let p = wc_params(mode);
        // Fault-free, width 1, default plan: the reference answer every
        // (plan, width, seed) cell must reproduce bit for bit.
        let reference = wordcount::run_local(&p, 1).checksum;
        for seed in FAULT_SEEDS {
            let plan = FaultPlan::seeded(seed, storm());
            for gc in GcPlanKind::ALL {
                for width in WIDTHS {
                    let report = run_job_faulty(
                        &wordcount::job(&p),
                        wordcount::wc_config(&p).gc_plan(gc),
                        width,
                        plan.clone(),
                        Some(RetryPolicy::resilient()),
                    )
                    .unwrap_or_else(|e| {
                        panic!("{gc}, {mode}, {width}x, seed {seed}: survivable WC died: {e}")
                    });
                    assert_eq!(
                        report.checksum.to_bits(),
                        reference.to_bits(),
                        "{gc}, {mode}, {width}x, seed {seed}: WC checksum drifted under GC plan"
                    );
                }
            }
        }
    }
    td.cleanup();
}

#[test]
fn pagerank_is_bit_identical_across_plans_widths_and_fault_seeds() {
    let td = TestDir::executor_default();
    for mode in [ExecutionMode::Spark, ExecutionMode::Deca] {
        let p = pr_params(mode);
        let reference = pagerank::run_local(&p, 1).checksum;
        for seed in FAULT_SEEDS {
            let plan = FaultPlan::seeded(seed, storm());
            for gc in GcPlanKind::ALL {
                for width in WIDTHS {
                    let report = run_job_faulty(
                        &pagerank::job(&p),
                        pagerank::pr_config(&p).gc_plan(gc),
                        width,
                        plan.clone(),
                        Some(RetryPolicy::resilient()),
                    )
                    .unwrap_or_else(|e| {
                        panic!("{gc}, {mode}, {width}x, seed {seed}: survivable PR died: {e}")
                    });
                    assert_eq!(
                        report.checksum.to_bits(),
                        reference.to_bits(),
                        "{gc}, {mode}, {width}x, seed {seed}: ranks drifted under GC plan"
                    );
                }
            }
        }
    }
    td.cleanup();
}

/// The recovery counters that must not depend on the scheduler: fault
/// pinning keeps injected failures on statically assigned executors, so
/// Wave and Pull charge identical recovery work under every GC plan —
/// including the concurrent ones, whose marker thread races the mutator
/// but never the fault ladder.
fn rollup(m: &JobMetrics) -> (u64, u64, u64, u64, u64, u64) {
    (m.attempts, m.retries, m.quarantines, m.restarts, m.oom_reruns, m.oom_recoveries)
}

#[test]
fn recovery_rollups_are_scheduler_invariant_under_every_plan() {
    let td = TestDir::executor_default();
    let seed = FAULT_SEEDS[0];
    let plan = FaultPlan::seeded(seed, storm());
    for gc in GcPlanKind::ALL {
        for mode in [ExecutionMode::Spark, ExecutionMode::Deca] {
            let run = |sched: SchedulerMode| {
                let p = wc_params(mode);
                let mut session = ClusterSession::new(
                    2,
                    wordcount::wc_config(&p)
                        .gc_plan(gc)
                        .retry(RetryPolicy::resilient())
                        .scheduler(sched),
                );
                session.install_faults(plan.clone());
                let (checksum, _) =
                    run_job_on(&wordcount::job(&p), &mut session).unwrap_or_else(|e| {
                        panic!("{gc}, {mode}, {sched}, seed {seed}: survivable WC died: {e}")
                    });
                (checksum, session.job_summary())
            };
            let (wave_sum, wave) = run(SchedulerMode::Wave);
            let (pull_sum, pull) = run(SchedulerMode::Pull);
            assert_eq!(
                wave_sum.to_bits(),
                pull_sum.to_bits(),
                "{gc}, {mode}, seed {seed}: checksums diverge across schedulers"
            );
            assert_eq!(
                rollup(&wave),
                rollup(&pull),
                "{gc}, {mode}, seed {seed}: recovery roll-ups diverge across schedulers"
            );
        }
    }
    td.cleanup();
}
