//! Fault-tolerance acceptance: the headline invariant of the resilient
//! driver is that for any *survivable* fault seed, a job's result is
//! **bit-identical** to the fault-free run at every mode × executor
//! width × scheduler — injected task failures, executor crashes,
//! corrupted shuffle frames and forced OOMs change the metrics (retries,
//! quarantines, recovery time), never the answer.
//!
//! Faults are drawn deterministically from a seed ([`FaultPlan`]), so
//! every scenario here replays exactly; `scripts/ci.sh` prints the seed
//! line to re-run a failing scenario locally.

mod util;

use deca_apps::concomp::{self, CcParams};
use deca_apps::pagerank::{self, PrParams};
use deca_apps::wordcount::{self, WcParams};
use deca_apps::{run_job_faulty, run_job_local, run_job_on};
use std::time::Duration;

use deca_engine::{
    AppJob, ClusterSession, EngineError, ExecutionMode, ExecutorConfig, FaultPlan, FaultSite,
    FaultSpec, JobMetrics, RetryPolicy, SchedulerMode,
};
use util::{scheduler_cells, WIDTHS};

/// Fixed fault seeds for the equivalence matrices. Chosen (and pinned)
/// so every seed injects at least one retried failure into both
/// workloads; the suite asserts that, so a seed drifting silent fails
/// loudly rather than testing nothing.
const FAULT_SEEDS: [u64; 3] = [11, 29, 47];

/// The seeds under test plus whether they are the pinned trio.
/// `DECA_CHECK_SEED` — the same replay knob the property harness uses —
/// overrides the set with a single seed. A replayed run asserts result
/// equivalence and the accounting invariants only, because an arbitrary
/// seed may inject nothing retried.
fn fault_seeds() -> (Vec<u64>, bool) {
    if let Some(seed) = std::env::var("DECA_CHECK_SEED").ok().and_then(|s| s.parse().ok()) {
        return (vec![seed], false);
    }
    (FAULT_SEEDS.to_vec(), true)
}

/// A busy but survivable scatter: every site fires somewhere, retries
/// never re-draw (`repeat_on_retry: false`), so a `resilient()` policy
/// absorbs everything the plan throws.
fn storm() -> FaultSpec {
    FaultSpec {
        task_body: 0.35,
        executor_crash: 0.10,
        shuffle_frame: 0.20,
        alloc: 0.15,
        // The spill-path kill points get their own dedicated suite
        // (tests/crash_recovery.rs); keeping them out of the storm keeps
        // this matrix's roll-up expectations independent of cache sizing.
        spill_path: 0.0,
        task_hang: 0.0,
        repeat_on_retry: false,
    }
}

/// A hang-only storm for the watchdog kill matrix. Keeping the other
/// sites quiet makes the timeout accounting exact: every attempt-0 hang
/// draw reaches the `TaskHang` rung of the injection ladder (nothing
/// earlier on the ladder can shadow it), so `timeouts` equals the number
/// of draws and each one charges its full deadline budget. Hangs mixed
/// with the other sites ride the existing `storm()` matrices.
fn hang_storm() -> FaultSpec {
    FaultSpec {
        task_body: 0.0,
        executor_crash: 0.0,
        shuffle_frame: 0.0,
        alloc: 0.0,
        spill_path: 0.0,
        task_hang: 0.30,
        repeat_on_retry: false,
    }
}

/// The matrices' retry policy: resilient, with or without speculative
/// execution. Every checksum and roll-up assertion must hold either way,
/// because losing duplicates never reach the counters.
fn matrix_policy(speculate: bool) -> RetryPolicy {
    RetryPolicy::resilient().speculate(speculate)
}

/// Every scheduler cell with speculation off, and its pull cells again
/// with speculation on (speculation only arms pull rounds, so a wave cell
/// with it on runs the same schedule as without).
fn fault_cells() -> impl Iterator<Item = (usize, SchedulerMode, bool)> {
    scheduler_cells().flat_map(|(w, sched)| {
        let speculate = if sched == SchedulerMode::Pull { &[false, true][..] } else { &[false] };
        speculate.iter().map(move |&spec| (w, sched, spec))
    })
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

fn cc_params(mode: ExecutionMode) -> CcParams {
    CcParams {
        vertices: 400,
        edges: 2_000,
        max_iterations: 10,
        partitions: 4,
        heap_bytes: 24 << 20,
        mode,
        storage_fraction: 0.4,
        seed: 9,
    }
}

/// Does the plan draw `site` at attempt 0 anywhere in these stages?
/// (Attempt-0 draws are the only ones a `repeat_on_retry: false` plan
/// makes.)
fn fires_somewhere(plan: &FaultPlan, site: FaultSite, stages: &[(&str, usize)]) -> bool {
    stages.iter().any(|(s, n)| (0..*n).any(|t| plan.fires(site, s, t, 0)))
}

/// The first crash to actually fire always poisons an executor, which
/// the driver then quarantines — or restarts when it is the last one
/// standing.
fn crashes_somewhere(plan: &FaultPlan, stages: &[(&str, usize)]) -> bool {
    fires_somewhere(plan, FaultSite::ExecutorCrash, stages)
}

#[test]
fn wordcount_under_faults_is_bit_identical_across_modes_and_widths() {
    let (seeds, pinned) = fault_seeds();
    for seed in seeds {
        let plan = FaultPlan::seeded(seed, storm());
        let crashes = crashes_somewhere(&plan, &[("wc-map", 4), ("wc-reduce", 4)]);
        for mode in ExecutionMode::ALL {
            let reference = wordcount::run_local(&wc_params(mode), 1).checksum;
            for (executors, sched, speculate) in fault_cells() {
                let cell =
                    format!("seed {seed}, {mode}, {executors}x {sched}, speculate {speculate}");
                let p = wc_params(mode);
                let report = run_job_faulty(
                    &wordcount::job(&p),
                    wordcount::wc_config(&p).scheduler(sched),
                    executors,
                    plan.clone(),
                    Some(matrix_policy(speculate)),
                )
                .unwrap_or_else(|e| panic!("{cell}: survivable plan died: {e}"));
                assert_eq!(report.checksum, reference, "{cell}: result drifted under faults");
                if pinned {
                    assert!(report.metrics.retries > 0, "{cell}: plan injected nothing retried");
                }
                // 4 map + 4 reduce logical tasks; retries and OOM
                // in-place re-runs are the only extra physical runs.
                assert_eq!(
                    report.metrics.attempts,
                    8 + report.metrics.retries + report.metrics.oom_reruns,
                    "{cell}: attempts accounting drifted"
                );
                assert!(
                    report.metrics.oom_recoveries <= report.metrics.oom_reruns,
                    "{cell}: more recoveries than re-runs"
                );
                if crashes {
                    let recovered = if executors == 1 {
                        report.metrics.restarts
                    } else {
                        report.metrics.quarantines
                    };
                    assert!(
                        recovered > 0,
                        "{cell}: crash drawn but no quarantine/restart recorded"
                    );
                }
            }
        }
    }
}

/// A graph job (PageRank, ConnectedComponents) under the storm returns its
/// fault-free answer bit for bit at every mode, width and scheduler.
fn graph_job_under_faults(build: fn(ExecutionMode) -> (AppJob, ExecutorConfig)) {
    let (seeds, pinned) = fault_seeds();
    for seed in seeds {
        let plan = FaultPlan::seeded(seed, storm());
        for mode in ExecutionMode::ALL {
            let (app, config) = build(mode);
            let reference = run_job_local(&app, config.clone(), 1).checksum;
            for (executors, sched, speculate) in fault_cells() {
                let cell = format!(
                    "{} seed {seed}, {mode}, {executors}x {sched}, speculate {speculate}",
                    app.name()
                );
                let report = run_job_faulty(
                    &app,
                    config.clone().scheduler(sched),
                    executors,
                    plan.clone(),
                    Some(matrix_policy(speculate)),
                )
                .unwrap_or_else(|e| panic!("{cell}: survivable plan died: {e}"));
                assert_eq!(
                    report.checksum.to_bits(),
                    reference.to_bits(),
                    "{cell}: result drifted under faults"
                );
                if pinned {
                    assert!(report.metrics.retries > 0, "{cell}: plan injected nothing retried");
                }
                // The stage count varies with the iteration structure (CC
                // stops when its labels settle); the invariant holds
                // relatively.
                assert!(
                    report.metrics.attempts >= report.metrics.retries + report.metrics.oom_reruns,
                    "{cell}: attempts below extra runs"
                );
                assert!(
                    report.metrics.oom_recoveries <= report.metrics.oom_reruns,
                    "{cell}: more recoveries than re-runs"
                );
            }
        }
    }
}

#[test]
fn pagerank_under_faults_is_bit_identical_across_modes_and_widths() {
    graph_job_under_faults(|mode| {
        let p = pr_params(mode);
        (pagerank::job(&p), pagerank::pr_config(&p))
    });
}

#[test]
fn connected_components_under_faults_is_bit_identical_across_modes_and_widths() {
    graph_job_under_faults(|mode| {
        let p = cc_params(mode);
        (concomp::job(&p), concomp::cc_config(&p))
    });
}

/// The recovery counters that must be scheduler-invariant: fault pinning
/// keeps every injected failure on its statically assigned executor, so
/// Wave and Pull charge identical recovery work, not just identical
/// answers.
fn rollup(m: &JobMetrics) -> (u64, u64, u64, u64, u64, u64) {
    (m.attempts, m.retries, m.quarantines, m.restarts, m.oom_reruns, m.oom_recoveries)
}

#[test]
fn scheduler_modes_are_equivalent_under_faults() {
    // {Wave, Pull, Pull with speculation} × {Spark, Deca} × widths
    // {1, 2, 4} × the pinned fault seeds, for both workloads: checksums
    // bit-identical AND the full recovery roll-up (attempts, retries,
    // quarantines, restarts, oom_reruns, oom_recoveries) identical cell by
    // cell. Speculative duplicates must not move a single counter.
    for seed in FAULT_SEEDS {
        let plan = FaultPlan::seeded(seed, storm());
        for mode in [ExecutionMode::Spark, ExecutionMode::Deca] {
            for executors in WIDTHS {
                let wc = |sched: SchedulerMode, speculate: bool| {
                    let p = wc_params(mode);
                    let mut session = ClusterSession::new(
                        executors,
                        wordcount::wc_config(&p).retry(matrix_policy(speculate)).scheduler(sched),
                    );
                    session.install_faults(plan.clone());
                    let (checksum, _) = run_job_on(&wordcount::job(&p), &mut session)
                        .unwrap_or_else(|e| {
                            panic!("seed {seed}, {mode}, {executors}x, {sched}: WC died: {e}")
                        });
                    (checksum, session.job_summary())
                };
                let (wave_sum, wave) = wc(SchedulerMode::Wave, false);
                for speculate in [false, true] {
                    let cell = format!("seed {seed}, {mode}, {executors}x, speculate {speculate}");
                    let (pull_sum, pull) = wc(SchedulerMode::Pull, speculate);
                    assert_eq!(
                        wave_sum, pull_sum,
                        "{cell}: WC checksums diverge across schedulers"
                    );
                    assert_eq!(
                        rollup(&wave),
                        rollup(&pull),
                        "{cell}: WC recovery roll-ups diverge"
                    );
                }

                let pr = |sched: SchedulerMode, speculate: bool| {
                    let p = pr_params(mode);
                    let mut session = ClusterSession::new(
                        executors,
                        pagerank::pr_config(&p).retry(matrix_policy(speculate)).scheduler(sched),
                    );
                    session.install_faults(plan.clone());
                    let (checksum, _) = run_job_on(&pagerank::job(&p), &mut session)
                        .unwrap_or_else(|e| {
                            panic!("seed {seed}, {mode}, {executors}x, {sched}: PR died: {e}")
                        });
                    (checksum, session.job_summary())
                };
                let (wave_sum, wave) = pr(SchedulerMode::Wave, false);
                for speculate in [false, true] {
                    let cell = format!("seed {seed}, {mode}, {executors}x, speculate {speculate}");
                    let (pull_sum, pull) = pr(SchedulerMode::Pull, speculate);
                    assert_eq!(
                        wave_sum, pull_sum,
                        "{cell}: PR checksums diverge across schedulers"
                    );
                    assert_eq!(
                        rollup(&wave),
                        rollup(&pull),
                        "{cell}: PR recovery roll-ups diverge"
                    );
                }
            }
        }
    }
}

#[test]
fn hang_matrix_watchdog_never_stalls_and_is_scheduler_invariant() {
    // The watchdog acceptance matrix: `TaskHang` × {Spark, Deca} ×
    // widths {1, 2, 4} × the pinned seeds, both workloads. Every cell
    // must complete — the watchdog turns each hang into a timed-out
    // transient attempt instead of a stalled stage — with checksums
    // bit-identical to the fault-free run and the recovery roll-up
    // (plus the timeout counter) identical across Wave, Pull, and Pull
    // with speculation: duplicates must not move a single counter.
    let deadline = Duration::from_millis(50);
    for seed in FAULT_SEEDS {
        let plan = FaultPlan::seeded(seed, hang_storm());
        let wc_hangs =
            fires_somewhere(&plan, FaultSite::TaskHang, &[("wc-map", 4), ("wc-reduce", 4)]);
        for mode in [ExecutionMode::Spark, ExecutionMode::Deca] {
            let wc_reference = wordcount::run_local(&wc_params(mode), 1).checksum;
            let pr_reference = pagerank::run_local(&pr_params(mode), 1).checksum;
            for executors in WIDTHS {
                let wc = |sched: SchedulerMode, speculate: bool| {
                    let p = wc_params(mode);
                    let mut session = ClusterSession::new(
                        executors,
                        wordcount::wc_config(&p)
                            .retry(matrix_policy(speculate).task_deadline(deadline))
                            .scheduler(sched),
                    );
                    session.install_faults(plan.clone());
                    let (checksum, _) = run_job_on(&wordcount::job(&p), &mut session)
                        .unwrap_or_else(|e| {
                            panic!("seed {seed}, {mode}, {executors}x, {sched}: hung WC died: {e}")
                        });
                    (checksum, session.job_summary())
                };
                let (wave_sum, wave) = wc(SchedulerMode::Wave, false);
                assert_eq!(
                    wave_sum, wc_reference,
                    "seed {seed}, {mode}, {executors}x: WC checksum drifted under hangs"
                );
                for speculate in [false, true] {
                    let cell = format!("seed {seed}, {mode}, {executors}x, speculate {speculate}");
                    let (pull_sum, pull) = wc(SchedulerMode::Pull, speculate);
                    assert_eq!(
                        pull_sum, wc_reference,
                        "{cell}: WC pull checksum drifted under hangs"
                    );
                    assert_eq!(rollup(&wave), rollup(&pull), "{cell}: WC hang roll-ups diverge");
                    assert_eq!(wave.timeouts, pull.timeouts, "{cell}: WC timeout counts diverge");
                }
                if wc_hangs {
                    assert!(
                        wave.timeouts > 0,
                        "seed {seed}, {mode}, {executors}x: hang drawn but no timeout recorded"
                    );
                    assert!(
                        wave.recovery >= deadline * wave.timeouts as u32,
                        "seed {seed}, {mode}, {executors}x: each timeout charges its full budget"
                    );
                }
                assert!(
                    wave.retries >= wave.timeouts,
                    "seed {seed}, {mode}, {executors}x: every timed-out attempt is retried"
                );

                let pr = |sched: SchedulerMode, speculate: bool| {
                    let p = pr_params(mode);
                    let mut session = ClusterSession::new(
                        executors,
                        pagerank::pr_config(&p)
                            .retry(matrix_policy(speculate).task_deadline(deadline))
                            .scheduler(sched),
                    );
                    session.install_faults(plan.clone());
                    let (checksum, _) = run_job_on(&pagerank::job(&p), &mut session)
                        .unwrap_or_else(|e| {
                            panic!("seed {seed}, {mode}, {executors}x, {sched}: hung PR died: {e}")
                        });
                    (checksum, session.job_summary())
                };
                let (wave_sum, wave) = pr(SchedulerMode::Wave, false);
                assert_eq!(
                    wave_sum, pr_reference,
                    "seed {seed}, {mode}, {executors}x: PR checksum drifted under hangs"
                );
                for speculate in [false, true] {
                    let cell = format!("seed {seed}, {mode}, {executors}x, speculate {speculate}");
                    let (pull_sum, pull) = pr(SchedulerMode::Pull, speculate);
                    assert_eq!(
                        pull_sum, pr_reference,
                        "{cell}: PR pull checksum drifted under hangs"
                    );
                    assert_eq!(rollup(&wave), rollup(&pull), "{cell}: PR hang roll-ups diverge");
                    assert_eq!(wave.timeouts, pull.timeouts, "{cell}: PR timeout counts diverge");
                }
            }
        }
    }
}

#[test]
fn forced_oom_degrades_gracefully_and_keeps_the_answer() {
    // A forced allocation failure in a map task: the driver spills the
    // executor's cache, collects, and re-runs the task in place — no
    // retry charged, same checksum.
    for mode in ExecutionMode::ALL {
        let reference = wordcount::run_local(&wc_params(mode), 2).checksum;
        let plan = FaultPlan::quiet().force(FaultSite::Alloc, "wc-map", Some(1), Some(0));
        let p = wc_params(mode);
        let report = run_job_faulty(
            &wordcount::job(&p),
            wordcount::wc_config(&p),
            2,
            plan,
            Some(RetryPolicy::resilient()),
        )
        .expect("OOM degradation must absorb a forced alloc failure");
        assert_eq!(report.checksum, reference, "{mode}: OOM recovery changed the result");
        assert!(report.metrics.oom_recoveries >= 1, "{mode}: spill-and-rerun not recorded");
        assert_eq!(report.metrics.retries, 0, "{mode}: in-place recovery must not charge a retry");
    }
}

#[test]
fn exhausted_attempts_fail_with_task_attributed_transient_error() {
    // An unsurvivable plan — the same task fails on every attempt — must
    // surface as an `Err` naming the task, classified transient (it *was*
    // retryable, the budget just ran out), never as a panic.
    let plan = FaultPlan::quiet().force(FaultSite::TaskBody, "wc-map", Some(2), None);
    let p = wc_params(ExecutionMode::Deca);
    let err = run_job_faulty(
        &wordcount::job(&p),
        wordcount::wc_config(&p),
        2,
        plan,
        Some(RetryPolicy::resilient()),
    )
    .expect_err("a task failing every attempt is unsurvivable");
    assert!(matches!(err, EngineError::Task { .. }), "must name the failing task: {err}");
    assert!(err.is_transient(), "attempt exhaustion is a transient-class failure: {err}");
    let rendered = err.to_string();
    assert!(
        rendered.contains("wc-map") && rendered.contains("task 2"),
        "attribution should reach the task: {rendered}"
    );
}

#[test]
fn losing_every_executor_fails_with_transient_error() {
    // Crash every task attempt and forbid sparing the last executor: the
    // whole cluster quarantines and the job reports a clean, transient,
    // task-attributed error.
    let plan = FaultPlan::quiet().force(FaultSite::ExecutorCrash, "wc-map", None, None);
    let policy = RetryPolicy::resilient().quarantine_after(1).spare_last_executor(false);
    let p = wc_params(ExecutionMode::Spark);
    let err = run_job_faulty(&wordcount::job(&p), wordcount::wc_config(&p), 2, plan, Some(policy))
        .expect_err("no healthy executors must be unsurvivable");
    assert!(matches!(err, EngineError::Task { .. }), "task-attributed: {err}");
    assert!(err.is_transient(), "executor loss is transient-class: {err}");
}
