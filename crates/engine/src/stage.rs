//! The stage engine: the one retry/round loop behind both ways of running
//! a job — a standalone [`ClusterSession`](crate::ClusterSession) and a
//! job submitted to a [`DecaServer`](crate::DecaServer).
//!
//! Spark's robustness story (§6.1) is one rule: a failed task is re-run,
//! elsewhere if needed, and the job converges to the same bytes. This
//! module is the only implementation of that rule. A [`StageEngine`] owns
//! what a job's driver loop owns — retry policy, scheduler mode, fault
//! plan, per-lane health, per-stage metrics, the driver-side trace and the
//! simulated job clock — and defines, exactly once:
//!
//! * the stage prelude and the all-quarantined abort;
//! * the **round loop**: a stage runs as rounds of `(task, attempt, home)`
//!   slots — the initial task set, then batches of retries;
//! * the **per-attempt fault body** ([`FaultSite`] draws, OOM
//!   spill-and-re-run, panic containment), run wherever a slot source
//!   executes an attempt;
//! * speculative-duplicate reconciliation, outcome processing, health
//!   charging, quarantine-or-restart, retry routing and the `StageEnd`
//!   roll-up — all single-threaded and in task order, so no decision
//!   depends on thread interleaving;
//! * the shuffle-job wrapper (map → exchange → reduce → recycle).
//!
//! ## Slot sources
//!
//! *Who physically runs a round* is the engine's one parameter, the
//! crate-private [`SlotSource`] trait. A *lane* is an executor as the job
//! sees it: the unit of task homes (`task % lanes`), health, quarantine
//! and busy-time charging. The two sources differ in exactly these ways,
//! and in nothing else:
//!
//! | concern | standalone ([`LocalCluster`](crate::LocalCluster)) | server job (the cross-job pool) |
//! |---|---|---|
//! | lanes | the physical executors | `W` virtual executors; lane `v` is at home on worker `v % E` |
//! | who runs a round | `par_run` scoped threads over a claim list, plus the speculation watch loop | publish the round to the pool, wait for the long-lived workers, retire it |
//! | poison state | the physical process's flag; a thief observes its own | per-job flag per lane; only an at-home attempt observes it |
//! | restart in place | crash-restart the process and rehydrate its cold cache | clear the lane's flag; rehydration counters stay 0 |
//! | lane charged for an attempt | the executor that ran it | the slot's virtual home |
//! | executor-side events | stay in the executors' recorders | drained per attempt, job-stamped, routed to the job |
//! | cancellation / deadline | none | checked at stage and round boundaries |
//! | speculation | pull rounds, when `RetryPolicy::speculate` | never |
//!
//! Both schedulers are one claim list: `Pull` pins exactly the
//! fault-affected slots to their home (see [`pin_faulted_slots_in`]) and
//! lets idle executors steal the rest; `Wave` pins everything, which is a
//! static queue per home.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicBool;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use crate::cluster::{
    exchange, healthy_after_in, healthy_count_in, healthy_from_in, ExecutorHealth,
};
use crate::config::{ExecutionMode, RetryPolicy, SchedulerMode};
use crate::driver::{MapOutputs, ShufflePayload, TaskContext};
use crate::error::EngineError;
use crate::executor::Executor;
use crate::faults::{FaultPlan, FaultSite};
use crate::metrics::{StageMetrics, TaskMetrics};
use crate::trace::TraceRecorder;

/// Lock a mutex, riding through poisoning: task panics are caught per
/// attempt and surfaced as [`EngineError::TaskPanic`], so a poisoned lock
/// only means "a panic unwound here once", never that the protected state
/// is torn.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

pub(crate) fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "task panicked".to_string()
    }
}

/// One schedulable attempt: `(task, attempt, home lane)`.
pub(crate) type Slot = (usize, u32, usize);

/// Where one physical attempt runs, as its slot source sees it.
pub(crate) struct Site<'a> {
    pub task: usize,
    pub attempt: u32,
    /// The lane charged with the outcome (health, busy time) and named by
    /// an `ExecutorLost`.
    pub lane: usize,
    /// What the task body sees as `ctx.executor` / `ctx.executors`.
    pub executor: usize,
    pub executors: usize,
    /// The attempt observes its lane as crashed and fails `ExecutorLost`.
    pub poisoned: bool,
    /// A speculative duplicate rather than the slot's primary copy.
    pub speculative: bool,
    pub cancel: &'a AtomicBool,
}

/// One finished physical attempt, as a slot source hands it back.
pub(crate) struct AttemptDone {
    pub task: usize,
    pub attempt: u32,
    pub lane: usize,
    pub speculative: bool,
    pub result: Result<(), EngineError>,
    pub oom_rerun: bool,
    pub oom_recovered: bool,
    /// The modelled executor process died in this attempt (an injected
    /// crash or spill-path kill): the source must poison the lane.
    pub died: bool,
    /// Metrics of every physical run the attempt made (one, or two with
    /// an OOM in-place re-run).
    pub task_metrics: Vec<TaskMetrics>,
}

/// The engine's per-attempt fault body, type-erased for a slot source.
pub(crate) type AttemptFn<'a> = dyn Fn(&mut Executor, &Site<'_>) -> AttemptDone + Sync + 'a;

/// One scheduling round handed to a slot source.
pub(crate) struct Round<'a> {
    pub stage: &'a str,
    /// Ascending by task index.
    pub slots: Vec<Slot>,
    /// Slots that must run at home; the rest may be stolen.
    pub pinned: Vec<bool>,
    /// Quarantined lanes: they are home to no slot and must not steal.
    pub benched: Vec<bool>,
    /// Idle executors may duplicate unpinned stragglers.
    pub speculate: bool,
    pub attempt: &'a AttemptFn<'a>,
}

/// Who physically runs a job's rounds. See the module docs for the
/// contract the two implementations keep.
pub(crate) trait SlotSource {
    fn lanes(&self) -> usize;

    fn mode(&self) -> ExecutionMode;

    /// Why the job must stop scheduling (cancelled, past its deadline),
    /// checked at stage and round boundaries.
    fn stop_reason(&mut self) -> Option<String>;

    fn is_poisoned(&self, lane: usize) -> bool;

    /// Restart a dead lane in place (`ordinal` restarts preceded this
    /// one). Returns the `(blocks, bytes)` rehydrated from its spill
    /// manifest; a lane that dies again mid-recovery stays poisoned.
    fn restart(&mut self, lane: usize, stage: &str, ordinal: u32, rehydrate: bool) -> (u64, u64);

    /// Run every slot of `round` through `round.attempt` and hand back one
    /// record per physical attempt, in any order.
    fn run_round(&mut self, round: Round<'_>) -> Vec<AttemptDone>;

    /// Return a consumed shuffle payload's storage to the `i`-th
    /// (round-robin) physical executor's arena.
    fn recycle_payload(&mut self, i: usize, payload: ShufflePayload);

    /// The job's current cached footprint, resident plus spilled.
    fn cache_footprint(&mut self) -> usize;
}

/// A job's driver state: everything about running its stages that does not
/// depend on who executes the attempts.
pub(crate) struct StageEngine {
    pub policy: RetryPolicy,
    pub scheduler: SchedulerMode,
    pub faults: FaultPlan,
    /// Health per lane, updated only between rounds.
    pub health: Vec<ExecutorHealth>,
    pub stages: Vec<StageMetrics>,
    /// Driver-side run trace (stage lifecycle and fault-handling
    /// decisions); executors record their own events.
    pub trace: TraceRecorder,
    /// Simulated job clock: cumulative stage critical-path plus recovery.
    sim_now: Duration,
    /// The job was cancelled (set once, with its `JobCancelled` event).
    pub cancelled: bool,
}

impl StageEngine {
    pub fn new(
        lanes: usize,
        policy: RetryPolicy,
        scheduler: SchedulerMode,
        tracing: bool,
    ) -> StageEngine {
        StageEngine {
            policy,
            scheduler,
            faults: FaultPlan::quiet(),
            health: vec![ExecutorHealth::default(); lanes],
            stages: Vec::new(),
            trace: TraceRecorder::new(tracing),
            sim_now: Duration::ZERO,
            cancelled: false,
        }
    }

    /// Fail with [`EngineError::Cancelled`] if the source says the job
    /// must stop, noting the cancellation.
    pub fn check_stop(&mut self, source: &mut dyn SlotSource) -> Result<(), EngineError> {
        let Some(reason) = source.stop_reason() else { return Ok(()) };
        self.note_cancelled(&reason);
        Err(EngineError::Cancelled { reason })
    }

    /// Record the job's cancellation, once: the flag behind the job's
    /// `cancelled` counter and the `JobCancelled` trace event.
    pub fn note_cancelled(&mut self, reason: &str) {
        if !self.cancelled {
            self.cancelled = true;
            self.trace.job_cancelled(reason, self.sim_now);
        }
    }

    /// Run one stage of `tasks` tasks and return their results in task
    /// order. `shuffle_stage` marks stages whose outputs cross the
    /// exchange: only those draw [`FaultSite::ShuffleFrame`] corruption
    /// (detected as a failed attempt, so the map task re-executes —
    /// Spark's fetch-failure → resubmit story — and corrupt bytes are
    /// never consumed).
    pub fn run_stage<R: Send>(
        &mut self,
        source: &mut dyn SlotSource,
        name: &str,
        tasks: usize,
        f: impl Fn(&TaskContext, &mut Executor) -> Result<R, EngineError> + Sync,
        shuffle_stage: bool,
    ) -> Result<Vec<R>, EngineError> {
        // Result cells live in this frame, one per copy of each task
        // (`[primary, duplicate]`), so the rounds below move only
        // `Result<(), _>` and `R` needs neither `'static` nor erasure.
        let cells: Vec<[Mutex<Option<R>>; 2]> =
            (0..tasks).map(|_| [Mutex::new(None), Mutex::new(None)]).collect();
        let body = |ctx: &TaskContext, e: &mut Executor, speculative: bool| {
            let out = f(ctx, e)?;
            *lock(&cells[ctx.task][speculative as usize]) = Some(out);
            Ok(())
        };
        let winners = self.run_rounds(source, name, tasks, &body, shuffle_stage)?;
        Ok(cells
            .into_iter()
            .zip(winners)
            .map(|(copies, duplicate_won)| {
                let [primary, duplicate] = copies;
                let cell = if duplicate_won { duplicate } else { primary };
                let out = cell.into_inner().unwrap_or_else(|p| p.into_inner());
                out.expect("completed stage fills every slot")
            })
            .collect())
    }

    /// Stage prelude and epilogue around [`StageEngine::rounds`]. Returns,
    /// per task, whether the canonical successful copy was the duplicate.
    fn run_rounds(
        &mut self,
        source: &mut dyn SlotSource,
        name: &str,
        tasks: usize,
        body: &(dyn Fn(&TaskContext, &mut Executor, bool) -> Result<(), EngineError> + Sync),
        shuffle_stage: bool,
    ) -> Result<Vec<bool>, EngineError> {
        assert!(tasks > 0, "a stage needs at least one task");
        // A job already cancelled (or past its deadline) never starts
        // another stage.
        self.check_stop(source)?;
        // Per-stage blacklisting: failure counts reset, quarantine holds.
        for h in &mut self.health {
            h.stage_failures = 0;
        }
        let sim_start = self.sim_now;
        let wall_start = self.trace.stage_start(name, sim_start, tasks);
        let mut stage = StageMetrics::new(name);
        let lanes = self.health.len();
        let outcome = if healthy_count_in(&self.health) == 0 {
            // A fully quarantined cluster cannot schedule anything: abort
            // up front, attributed to the cluster state — not to whichever
            // executor happened to be next in round-robin order — and
            // record a zeroed aborted-stage row.
            stage.aborted = true;
            Err(EngineError::AllExecutorsLost { executors: lanes, quarantined: lanes }
                .in_task(name, 0))
        } else {
            stage.tasks = tasks;
            self.rounds(source, &mut stage, name, body, shuffle_stage)
        };
        // The stage is recorded even when it fails: partial work and
        // recovery attempts stay visible in the metrics.
        self.sim_now += stage.exec + stage.recovery;
        self.trace.stage_end(&stage, wall_start, sim_start);
        self.stages.push(stage);
        outcome
    }

    /// The round loop: run rounds of slots until every task has a
    /// successful canonical attempt or the stage fails.
    fn rounds(
        &mut self,
        source: &mut dyn SlotSource,
        stage: &mut StageMetrics,
        name: &str,
        body: &(dyn Fn(&TaskContext, &mut Executor, bool) -> Result<(), EngineError> + Sync),
        shuffle_stage: bool,
    ) -> Result<Vec<bool>, EngineError> {
        let tasks = stage.tasks;
        let lanes = self.health.len();
        let policy = self.policy;
        let scheduler = self.scheduler;
        let plan = self.faults.clone();

        // One physical attempt, identical under both schedulers and both
        // slot sources. Fault decisions are pure functions of (site,
        // stage, task, attempt) and a lane's poison state is only written
        // by the thread hosting it, so the failure scenario is identical
        // across widths and interleavings.
        let attempt = |e: &mut Executor, site: &Site<'_>| -> AttemptDone {
            let (t, a) = (site.task, site.attempt);
            let ctx = TaskContext {
                stage: name,
                task: t,
                tasks,
                executor: site.executor,
                executors: site.executors,
                cancel: site.cancel,
            };
            // Panics are caught per attempt so one bad task body cannot
            // wedge an executor thread other work shares; they surface as
            // fatal, task-attributed `TaskPanic` errors.
            let run_body = |e: &mut Executor| -> Result<(), EngineError> {
                catch_unwind(AssertUnwindSafe(|| body(&ctx, e, site.speculative))).unwrap_or_else(
                    |p| {
                        Err(EngineError::TaskPanic {
                            stage: name.to_string(),
                            task: t,
                            message: panic_message(p),
                        })
                    },
                )?;
                if shuffle_stage && plan.fires(FaultSite::ShuffleFrame, name, t, a) {
                    return Err(EngineError::Injected { site: FaultSite::ShuffleFrame });
                }
                Ok(())
            };
            let mark = e.tasks.len();
            let mut crashed = false;
            let mut result = e.run_task_in(format!("{name}-{t}"), name, t, a, |e| {
                // An attempt whose token is already raised (its job was
                // cancelled, or the other copy of its slot finished) fails
                // fast without running the body, so the round retires
                // promptly.
                if ctx.is_cancelled() {
                    return Err(EngineError::Cancelled {
                        reason: "cancelled before the attempt started".to_string(),
                    });
                }
                if site.poisoned {
                    return Err(EngineError::ExecutorLost { executor: site.lane });
                }
                if plan.fires(FaultSite::ExecutorCrash, name, t, a) {
                    crashed = true;
                    return Err(EngineError::ExecutorLost { executor: site.lane });
                }
                if plan.fires(FaultSite::TaskBody, name, t, a) {
                    return Err(EngineError::Injected { site: FaultSite::TaskBody });
                }
                if plan.fires(FaultSite::Alloc, name, t, a) {
                    return Err(EngineError::Injected { site: FaultSite::Alloc });
                }
                if plan.fires(FaultSite::TaskHang, name, t, a) {
                    // The attempt hangs: it never runs the body and burns
                    // its whole deadline budget in simulated time. The
                    // watchdog fails it with the transient Deadline error;
                    // the budget is charged to stage recovery at outcome
                    // processing (single-threaded, so every scheduler and
                    // source charges identically).
                    return Err(EngineError::Deadline {
                        stage: name.to_string(),
                        task: t,
                        attempt: a,
                        budget: policy.deadline_budget(),
                    });
                }
                run_body(e)
            });
            // A spill-path kill point fired inside the cache: the modelled
            // executor process died mid-spill/restore. Like a crash, the
            // restart/quarantine machinery — not a plain task retry —
            // performs the recovery.
            let died = crashed || result.as_ref().is_err_and(|err| err.injected_kill().is_some());
            // Graceful OOM degradation: spill the cache, collect, and
            // re-run once in place. An injected Alloc fault models the
            // same pressure, so the spill relieves it and it is not
            // re-drawn on the in-place re-run.
            let oom_rerun = policy.spill_on_oom
                && !died
                && result.as_ref().is_err_and(|err| err.is_memory_pressure());
            if oom_rerun {
                e.spill_for_memory();
                result = e.run_task_in(format!("{name}-{t}-oom-retry"), name, t, a, run_body);
            }
            AttemptDone {
                task: t,
                attempt: a,
                lane: site.lane,
                speculative: site.speculative,
                oom_recovered: oom_rerun && result.is_ok(),
                result,
                oom_rerun,
                died,
                task_metrics: e.tasks[mark..].to_vec(),
            }
        };

        let mut winners = vec![false; tasks];
        // Initial assignment: task t starts on the first healthy lane at or
        // after t % lanes — exactly t % lanes when nothing is quarantined,
        // preserving static round-robin pinning.
        let mut pending: Vec<Slot> = (0..tasks)
            .map(|t| {
                let x = healthy_from_in(&self.health, t % lanes).expect("a healthy lane exists");
                (t, 0, x)
            })
            .collect();
        // Per-lane busy time accumulated over every round.
        let mut busy_total = vec![Duration::ZERO; lanes];

        while !pending.is_empty() {
            // Round-boundary watchdog: a cancelled or overdue job stops
            // scheduling new rounds; the stage still records its metrics
            // and StageEnd.
            self.check_stop(source)?;
            let mut slots = std::mem::take(&mut pending);
            slots.sort_unstable_by_key(|&(t, ..)| t);
            // Determinism under `Pull`: fault-affected attempts are pinned
            // to their home up front, so crash poisoning, failure charging,
            // quarantines and OOM spills land exactly where `Wave` puts
            // them; fault-free attempts never touch health state, so a
            // steal only changes *where* the same bytes are computed.
            let pinned = match scheduler {
                SchedulerMode::Wave => vec![true; slots.len()],
                SchedulerMode::Pull => {
                    let doomed: Vec<bool> = (0..lanes).map(|x| source.is_poisoned(x)).collect();
                    pin_faulted_slots_in(&doomed, &slots, name, shuffle_stage, &plan)
                }
            };
            let benched = self.health.iter().map(|h| h.quarantined).collect();
            let mut done = source.run_round(Round {
                stage: name,
                slots,
                pinned,
                benched,
                speculate: policy.speculate && scheduler == SchedulerMode::Pull,
                attempt: &attempt,
            });

            // Roll every physical run's metrics into the stage. Under
            // `Wave` the barrier makes each round's critical path the
            // busiest lane of that round, and the stage's path their sum;
            // under `Pull` there is no intra-stage barrier, so the path is
            // the busiest lane across the whole stage so far.
            let mut round_busy = vec![Duration::ZERO; lanes];
            for d in &done {
                for tm in &d.task_metrics {
                    stage.add_task(tm);
                    round_busy[d.lane] += tm.total();
                }
            }
            for (total, busy) in busy_total.iter_mut().zip(&round_busy) {
                *total += *busy;
            }
            stage.exec = match scheduler {
                SchedulerMode::Wave => {
                    stage.exec + round_busy.into_iter().max().unwrap_or_default()
                }
                SchedulerMode::Pull => busy_total.iter().copied().max().unwrap_or_default(),
            };

            // Process outcomes single-threaded, in task order (a primary
            // before its duplicate), so health and retry decisions never
            // depend on thread interleaving.
            done.sort_by_key(|d| (d.task, d.speculative));

            // Reconcile speculative duplicates: exactly one canonical
            // attempt per slot enters the counters, chosen by rules that
            // never depend on which copy physically finished first. A
            // successful primary always wins (a duplicate only ever
            // improves wall-clock, never results); a failed primary loses
            // to a successful duplicate; when both fail, keep the copy
            // that failed for a real reason over one that was merely
            // cancelled. The loser's errors and OOM flags are discarded.
            let mut canonical: Vec<AttemptDone> = Vec::with_capacity(done.len());
            for d in done {
                if !d.speculative {
                    canonical.push(d);
                    continue;
                }
                stage.speculative_launched += 1;
                let primary = canonical.last_mut().expect("a duplicate follows its primary");
                let primary_won = match (&primary.result, &d.result) {
                    (Ok(()), _) => true,
                    (Err(_), Ok(())) => false,
                    (Err(pe), Err(de)) => {
                        !matches!(pe, EngineError::Cancelled { .. })
                            || matches!(de, EngineError::Cancelled { .. })
                    }
                };
                if !primary_won {
                    stage.speculative_wins += 1;
                    *primary = d;
                }
            }

            let mut failures: Vec<(usize, u32, usize, EngineError)> = Vec::new();
            for d in canonical {
                let (t, a, x) = (d.task, d.attempt, d.lane);
                // An OOM in-place re-run is a physical task run: count it
                // in `attempts` (and `oom_reruns`), never in `retries`.
                stage.attempts += 1 + d.oom_rerun as u64;
                stage.oom_reruns += d.oom_rerun as u64;
                if d.oom_recovered {
                    stage.oom_recoveries += 1;
                    self.trace.oom_recovery(name, (t, a), x, self.sim_now);
                }
                match d.result {
                    Ok(()) => winners[t] = d.speculative,
                    Err(err) => {
                        // The watchdog's verdict on a hung attempt: the
                        // whole deadline budget was burned, charged to
                        // stage recovery in simulated time (never slept).
                        if let EngineError::Deadline { budget, .. } = &err {
                            stage.timeouts += 1;
                            stage.recovery += *budget;
                            self.trace.task_timeout(name, (t, a), x, self.sim_now, *budget);
                        }
                        failures.push((t, a, x, err));
                    }
                }
            }

            // Charge failures to lane health, then deal with dead or
            // repeat offenders: quarantine, or — for the last healthy lane
            // under `spare_last_executor` — restart in place.
            for &(_, _, x, _) in &failures {
                self.health[x].stage_failures += 1;
            }
            for x in 0..lanes {
                let dead = source.is_poisoned(x);
                let over = self.health[x].stage_failures >= policy.quarantine_after;
                if (!dead && !over) || self.health[x].quarantined {
                    continue;
                }
                if healthy_count_in(&self.health) == 1 && policy.spare_last_executor {
                    // The ordinal (restarts *before* this one) keys the
                    // `Rehydrate` kill point, so a crash during recovery
                    // resolves differently on the next restart — which
                    // still counts, and so runs at a higher ordinal.
                    let ordinal = self.health[x].restarts as u32;
                    let (blocks, bytes) = source.restart(x, name, ordinal, policy.rehydrate);
                    self.health[x].rehydrated_blocks += blocks;
                    stage.rehydrated_blocks += blocks;
                    stage.rehydrated_bytes += bytes;
                    self.health[x].stage_failures = 0;
                    self.health[x].restarts += 1;
                    stage.restarts += 1;
                    stage.recovery += policy.backoff;
                    self.trace.restart(name, x, self.sim_now, policy.backoff);
                } else {
                    self.health[x].quarantined = true;
                    stage.quarantines += 1;
                    self.trace.quarantine(name, x, self.sim_now);
                }
            }

            // Reschedule failed tasks on the next healthy lane, or fail the
            // stage: fatal error, attempts exhausted, or no healthy lane
            // left. The error keeps its innermost task attribution and
            // transient/fatal classification.
            for (t, a, x, err) in failures {
                let retryable = err.is_transient() && a + 1 < policy.max_attempts;
                let Some(y) = healthy_after_in(&self.health, x).filter(|_| retryable) else {
                    return Err(err.in_task(name, t));
                };
                stage.retries += 1;
                stage.recovery += policy.backoff;
                self.trace.retry(name, (t, a), x, y, self.sim_now, policy.backoff);
                pending.push((t, a + 1, y));
            }
        }
        Ok(winners)
    }

    /// Run a two-stage shuffle job: a map stage producing per-reducer
    /// payloads, an all-to-all exchange, and a reduce stage consuming its
    /// partition's payloads in map-task order. The stage pair is recorded
    /// as `"{name}-map"` / `"{name}-reduce"`, with the exchanged volume on
    /// the map stage's `shuffle_bytes` / `shuffle_pages`.
    pub fn run_shuffle_job<R: Send>(
        &mut self,
        source: &mut dyn SlotSource,
        name: &str,
        map_tasks: usize,
        reduce_tasks: usize,
        map: impl Fn(&TaskContext, &mut Executor) -> Result<MapOutputs, EngineError> + Sync,
        reduce: impl Fn(&TaskContext, &mut Executor, &[ShufflePayload]) -> Result<R, EngineError> + Sync,
    ) -> Result<Vec<R>, EngineError> {
        let checked_map = |ctx: &TaskContext, e: &mut Executor| {
            let out = map(ctx, e)?;
            if out.len() != reduce_tasks {
                return Err(EngineError::Shuffle(format!(
                    "map task {} produced {} reducer outputs, expected {}",
                    ctx.task,
                    out.len(),
                    reduce_tasks
                ))
                .in_task(ctx.stage, ctx.task));
            }
            Ok(out)
        };
        let outputs =
            self.run_stage(source, &format!("{name}-map"), map_tasks, checked_map, true)?;
        if let Some(s) = self.stages.last_mut() {
            s.shuffle_bytes = outputs.iter().flatten().map(|p| p.len() as u64).sum();
            s.shuffle_pages = outputs.iter().flatten().map(|p| p.page_count() as u64).sum();
        }

        // All-to-all exchange: inputs[reducer][map task], map-task order.
        // Payloads *move* — page-backed runs change owner here, no copy.
        let inputs = exchange(outputs);
        let consume = |ctx: &TaskContext, e: &mut Executor| reduce(ctx, e, &inputs[ctx.task]);
        let result =
            self.run_stage(source, &format!("{name}-reduce"), reduce_tasks, consume, false);
        // The exchange's lifetime ends with the reduce stage: return the
        // consumed payloads' storage to the executor arenas so the next
        // shuffle round reuses pages/buffers instead of allocating. Only
        // after a successful reduce, so a retried attempt can never observe
        // a recycled page.
        if result.is_ok() {
            for (i, p) in inputs.into_iter().flatten().enumerate() {
                source.recycle_payload(i, p);
            }
        }
        result
    }
}

/// Pull-mode fault pinning: decide, before a round runs, which slots must
/// execute on their home lane so the failure scenario — which lane a fault
/// charges, poisons, or OOM-spills — is identical to wave scheduling.
/// `doomed_at_start` is each lane's poison state as its slot source reports
/// it. Walks each lane's home slots in ascending task order, mirroring
/// exactly what its wave queue would run: a crash dooms every later home
/// slot (they fail with `ExecutorLost` at home), and any other firing site
/// pins just its own slot. Fault-free slots stay stealable — they never
/// touch health state, so where they run is observability, not semantics.
pub(crate) fn pin_faulted_slots_in(
    doomed_at_start: &[bool],
    slots: &[Slot],
    name: &str,
    shuffle_stage: bool,
    plan: &FaultPlan,
) -> Vec<bool> {
    let mut pinned = vec![false; slots.len()];
    // Fast path: a quiet plan on a healthy cluster pins nothing.
    if plan.is_quiet() && doomed_at_start.iter().all(|&d| !d) {
        return pinned;
    }
    for (i, &start_doomed) in doomed_at_start.iter().enumerate() {
        let mut doomed = start_doomed;
        for (j, &(t, a, home)) in slots.iter().enumerate() {
            if home != i {
                continue;
            }
            if doomed {
                pinned[j] = true;
            } else if plan.fires(FaultSite::ExecutorCrash, name, t, a) {
                pinned[j] = true;
                doomed = true;
            } else if FaultSite::SPILL_PATH.iter().any(|&s| plan.fires(s, name, t, a)) {
                // A spill-path kill *may* fire in this attempt (only
                // if the cache reaches the instrumented point); treat
                // it like a crash — pin it and everything after it.
                // Over-pinning is safe: pinned slots run at home
                // exactly as the wave scheduler would run them.
                pinned[j] = true;
                doomed = true;
            } else if plan.fires(FaultSite::TaskBody, name, t, a)
                || plan.fires(FaultSite::Alloc, name, t, a)
                || plan.fires(FaultSite::TaskHang, name, t, a)
                || (shuffle_stage && plan.fires(FaultSite::ShuffleFrame, name, t, a))
            {
                // A hang, like any in-task failure, must be charged to
                // the home lane's health — pin just its own slot.
                pinned[j] = true;
            }
        }
    }
    pinned
}
