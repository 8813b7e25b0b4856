//! The standalone job driver: multi-stage jobs across a private
//! [`LocalCluster`].
//!
//! The paper's executors are parallel JVM processes driven stage-by-stage
//! by Spark's DAG scheduler (§6.1): a job splits at shuffle boundaries
//! into a map stage, an all-to-all exchange of shuffle bytes, and a reduce
//! stage. [`ClusterSession`] is that driver layer for one job on its own
//! cluster: apps describe the task bodies; the session runs the task
//! rounds in parallel OS threads, moves the shuffle bytes between
//! executors (serialized blocks for Spark/SparkSer, raw page bytes for
//! Deca — §6.1's "directly outputting the raw bytes"), and rolls per-stage
//! metrics into [`StageMetrics`].
//!
//! A session is a [`LocalCluster`] plus the crate's one stage engine
//! (`stage.rs`): the retry/round loop, the per-attempt fault body,
//! quarantine/restart decisions and the metric roll-up live there, shared
//! with [`DecaServer`](crate::DecaServer) jobs. This module contributes
//! the standalone *slot source* — how a round of `(task, attempt, home)`
//! slots physically runs on scoped threads over the session's own
//! executors — and the session's read-out API.
//!
//! ## Task model and determinism
//!
//! A stage runs `tasks` tasks (one per data partition — independent of
//! the executor count). Task `t`'s *home* executor is `t % executors`.
//! How attempts reach executors is the [`SchedulerMode`]:
//!
//! * `Wave` (the historical scheduler) statically queues every attempt
//!   at its home and barriers per round, so one straggler idles the
//!   other `E-1` executors for the rest of the round;
//! * `Pull` (the default) has executors claim attempts from a shared
//!   list — their own home slots first, in ascending task order
//!   (affinity-first, preserving locality for executor-pinned state),
//!   then remaining tasks in ascending order (work stealing).
//!
//! Executor-local state written by task `t` in one stage (cached
//! blocks, registered classes) is found at home in later stages under
//! either scheduler; a stolen task that misses executor-local state
//! rebuilds it from lineage (the apps' recompute path). Shuffle
//! exchange concatenates map outputs in *map-task order*, not executor
//! order. Together these make a job's result a pure function of its
//! partitioning — bit-for-bit independent of executor count *and*
//! scheduler mode, which the cluster equivalence tests assert.
//!
//! ## Fault tolerance
//!
//! Spark's robustness story rests on the same determinism: a failed task
//! is simply re-run, elsewhere if needed, and the job converges to the
//! same result (§6.1 keeps shuffle/cache bytes reconstructible from
//! lineage precisely for this). The stage engine implements that story
//! under a [`RetryPolicy`]:
//!
//! * transient task failures ([`EngineError::is_transient`]) re-run on
//!   the next healthy executor in round-robin order, up to
//!   `max_attempts`, with per-retry backoff accounted into the stage's
//!   simulated `recovery` time (never a wall-clock sleep);
//! * an executor that crashes (or accumulates `quarantine_after` task
//!   failures within a stage) is **quarantined** — Spark-style
//!   blacklisting — and receives no further tasks; the last healthy
//!   executor is instead restarted in place when
//!   `spare_last_executor` is set;
//! * OOM-classified failures degrade gracefully: the executor spills its
//!   cache to disk, collects, and re-runs the task once in place, so
//!   memory-pressure runs finish slower instead of aborting;
//! * a panicking task body is contained to its attempt and fails the
//!   stage with a fatal, task-attributed [`EngineError::TaskPanic`].
//!
//! Failure scenarios are injected deterministically from a seeded
//! [`FaultPlan`], and the fault-tolerance suite asserts the headline
//! invariant: for any survivable plan, the job result is bit-identical to
//! the fault-free run at every mode × executor width. Under pull
//! scheduling, every fault-affected attempt is additionally *pinned* to
//! its home executor before the round runs, so a seeded plan produces
//! identical failure charging, quarantines, retries and OOM spills in
//! both scheduler modes — the Wave/Pull equivalence matrix asserts the
//! roll-ups match counter for counter.
//!
//! ```
//! use deca_engine::{ClusterSession, ExecutionMode, ExecutorConfig};
//!
//! let cfg = ExecutorConfig::new(ExecutionMode::Deca, 16 << 20);
//! let mut s = ClusterSession::new(2, cfg);
//! let parts: Vec<Vec<i64>> = vec![vec![1, 2], vec![3, 4], vec![5, 6]];
//! let sums = s
//!     .run_stage("sum", parts.len(), |ctx, _e| Ok(parts[ctx.task].iter().sum::<i64>()))
//!     .unwrap();
//! assert_eq!(sums, vec![3, 7, 11]);
//! assert_eq!(s.stages()[0].tasks, 3);
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::cluster::{ExecutorHealth, LocalCluster};
use crate::config::{ExecutionMode, ExecutorConfig, RetryPolicy, SchedulerMode};
use crate::error::EngineError;
use crate::executor::Executor;
use crate::faults::FaultPlan;
use crate::metrics::{JobMetrics, StageMetrics, Timeline};
use crate::stage::{AttemptDone, Round, Site, SlotSource, StageEngine};
use crate::trace::{RunTrace, TraceRecorder};
pub use deca_core::ShufflePayload;

/// What a task knows about its place in a stage.
#[derive(Clone, Debug)]
pub struct TaskContext<'a> {
    /// The stage's name (task names are `"{stage}-{task}"`).
    pub stage: &'a str,
    /// This task's index within the stage, `0..tasks`.
    pub task: usize,
    /// Total tasks in the stage.
    pub tasks: usize,
    /// The executor this attempt runs on: the task's home
    /// (`task % executors`) under wave scheduling, possibly a stealing
    /// executor under pull scheduling, and retries may migrate to
    /// another executor under either.
    pub executor: usize,
    /// Executors in the cluster.
    pub executors: usize,
    /// Cooperative-cancellation token for this attempt: set when a
    /// speculative duplicate of the task completed first, or when the
    /// attempt's job was cancelled. Never set outside those paths.
    pub(crate) cancel: &'a AtomicBool,
}

/// Token for attempts that can never be cancelled (wave scheduling,
/// non-speculative pull rounds, and plain local sessions).
pub(crate) static NEVER_CANCELLED: AtomicBool = AtomicBool::new(false);

impl TaskContext<'_> {
    /// Has this attempt been cancelled cooperatively? Long-running task
    /// bodies should poll this and bail out with
    /// [`EngineError::Cancelled`] when it turns true: the result is no
    /// longer needed (a speculative duplicate already produced it, or
    /// the job was cancelled), and returning early releases the executor.
    /// Ignoring the token is always *correct* — a completed loser is
    /// discarded deterministically — just slower.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }
}

/// Per-reducer shuffle outputs of one map task: `outputs[reducer]` is the
/// payload this task contributes to that reduce partition — pages handed
/// over without a copy (Deca) or a pooled byte buffer (Spark/SparkSer).
pub type MapOutputs = Vec<ShufflePayload>;

/// Shared bookkeeping for one speculative pull round
/// (`RetryPolicy::speculate`): who is running each slot, since when,
/// whether a finished copy exists, and the cancel token pair
/// (`[primary, duplicate]`) each slot's copies poll.
struct SpecRound {
    epoch: Instant,
    /// Per-slot primary start, ns since `epoch` plus one (0 = unstarted).
    started: Vec<AtomicU64>,
    /// Executor running each slot's primary copy.
    runner: Vec<AtomicUsize>,
    /// A finished copy exists for the slot.
    done: Vec<AtomicBool>,
    /// Wall duration of a finished copy, ns (the watchdog's runtime
    /// estimate sample).
    dur: Vec<AtomicU64>,
    /// A duplicate has been launched for the slot.
    taken: Vec<AtomicBool>,
    /// Cooperative cancel tokens per slot: `[primary, duplicate]`.
    cancels: Vec<[AtomicBool; 2]>,
    /// Slots with a finished copy (the round ends at `slots`).
    finished: AtomicUsize,
}

impl SpecRound {
    fn new(slots: usize) -> SpecRound {
        SpecRound {
            epoch: Instant::now(),
            started: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            runner: (0..slots).map(|_| AtomicUsize::new(usize::MAX)).collect(),
            done: (0..slots).map(|_| AtomicBool::new(false)).collect(),
            dur: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            taken: (0..slots).map(|_| AtomicBool::new(false)).collect(),
            cancels: (0..slots).map(|_| [AtomicBool::new(false), AtomicBool::new(false)]).collect(),
            finished: AtomicUsize::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// One copy of slot `j` finished: record its duration sample, mark
    /// the slot complete, and cancel the other copy cooperatively.
    fn finish(&self, j: usize, started_ns: u64, loser_copy: usize) {
        self.dur[j].store(self.now_ns().saturating_sub(started_ns).max(1), Ordering::Relaxed);
        if !self.done[j].swap(true, Ordering::Relaxed) {
            self.finished.fetch_add(1, Ordering::Relaxed);
        }
        self.cancels[j][loser_copy].store(true, Ordering::Relaxed);
    }

    /// The watchdog's staleness threshold: twice the median duration of
    /// the round's completed copies — available only once at least half
    /// the round has completed (the quantile estimate needs evidence).
    fn stale_threshold_ns(&self, total: usize) -> Option<u64> {
        let completed = self.finished.load(Ordering::Relaxed);
        if completed == 0 || completed * 2 < total {
            return None;
        }
        let mut ds: Vec<u64> = (0..self.done.len())
            .filter(|&j| self.done[j].load(Ordering::Relaxed))
            .map(|j| self.dur[j].load(Ordering::Relaxed))
            .filter(|&d| d > 0)
            .collect();
        if ds.is_empty() {
            return None;
        }
        ds.sort_unstable();
        Some(ds[ds.len() / 2].saturating_mul(2).max(1))
    }
}

/// A standalone multi-stage job driver: a private [`LocalCluster`] driven by
/// a stage engine.
pub struct ClusterSession {
    pub(crate) cluster: LocalCluster,
    pub(crate) engine: StageEngine,
}

impl ClusterSession {
    /// A session over `executors` identical executors (per-executor spill
    /// subdirectories, as [`LocalCluster::uniform`]). The retry policy is
    /// taken from the config; no faults are injected until
    /// [`ClusterSession::install_faults`].
    pub fn new(executors: usize, config: ExecutorConfig) -> ClusterSession {
        assert!(executors > 0, "a cluster needs at least one executor");
        let engine = StageEngine::new(executors, config.retry, config.scheduler, config.tracing);
        ClusterSession { cluster: LocalCluster::uniform(executors, config), engine }
    }

    /// A session over explicitly configured (possibly heterogeneous)
    /// executors. The retry policy and scheduler mode are taken from the
    /// first config.
    pub fn with_configs(configs: Vec<ExecutorConfig>) -> ClusterSession {
        assert!(!configs.is_empty(), "a cluster needs at least one executor");
        let first = &configs[0];
        let engine = StageEngine::new(configs.len(), first.retry, first.scheduler, first.tracing);
        ClusterSession { cluster: LocalCluster::new(configs), engine }
    }

    pub fn executors(&self) -> usize {
        self.cluster.len()
    }

    /// The cluster's execution mode (executor 0's; `uniform` clusters are
    /// homogeneous).
    pub fn mode(&self) -> ExecutionMode {
        self.cluster.executors[0].mode()
    }

    pub fn executor(&self, i: usize) -> &Executor {
        &self.cluster.executors[i]
    }

    // ------------------------------------------------------------------
    // fault-handling knobs
    // ------------------------------------------------------------------

    /// Replace the driver's retry policy.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.engine.policy = policy;
    }

    pub fn scheduler(&self) -> SchedulerMode {
        self.engine.scheduler
    }

    /// Install a fault plan; subsequent stages consult it at every
    /// injection site. Installing [`FaultPlan::quiet`] turns faults off.
    /// The plan is also installed into every executor's cache manager so
    /// the spill-path kill points (`SpillWrite`, `ManifestCommit`,
    /// `SpillRead`, `Rehydrate`) can fire inside the cache itself.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        for e in &mut self.cluster.executors {
            e.install_fault_plan(&plan);
        }
        self.engine.faults = plan;
    }

    /// Driver-side health record of executor `i`.
    pub fn health(&self, i: usize) -> &ExecutorHealth {
        &self.engine.health[i]
    }

    /// Executors currently quarantined.
    pub fn quarantined_count(&self) -> usize {
        self.engine.health.iter().filter(|h| h.quarantined).count()
    }

    /// Bring executor `i` back into service: clear its crash poison,
    /// quarantine flag, and per-stage failure count (the operator
    /// replacing a node between jobs).
    pub fn recover_executor(&mut self, i: usize) {
        self.cluster.executors[i].recover();
        self.engine.health[i].quarantined = false;
        self.engine.health[i].stage_failures = 0;
    }

    // ------------------------------------------------------------------
    // stages
    // ------------------------------------------------------------------

    /// Run one stage: `tasks` tasks scheduled over the healthy executors
    /// (see [`SchedulerMode`] for how), each timed and attributed as one
    /// executor task. Returns the task results in task order.
    ///
    /// The task closure must be deterministic in `(ctx.task, executor
    /// state)` for cluster results to be independent of executor count —
    /// and for retries to be sound: a re-run attempt must produce the
    /// same bytes the failed attempt would have. A panicking task fails
    /// the stage with a task-attributed [`EngineError::TaskPanic`].
    pub fn run_stage<R: Send>(
        &mut self,
        name: &str,
        tasks: usize,
        f: impl Fn(&TaskContext, &mut Executor) -> Result<R, EngineError> + Sync,
    ) -> Result<Vec<R>, EngineError> {
        self.engine.run_stage(&mut self.cluster, name, tasks, f, false)
    }

    /// Run a two-stage shuffle job: a map wave producing per-reducer byte
    /// runs, an all-to-all exchange, and a reduce wave consuming its
    /// partition's runs in map-task order.
    ///
    /// Each map task must return exactly `reduce_tasks` output runs; each
    /// reduce task receives `map_tasks` input runs (possibly empty). The
    /// stage pair is recorded as `"{name}-map"` / `"{name}-reduce"`, with
    /// the exchanged byte volume on the map stage's `shuffle_bytes`.
    pub fn run_shuffle_job<R: Send>(
        &mut self,
        name: &str,
        map_tasks: usize,
        reduce_tasks: usize,
        map: impl Fn(&TaskContext, &mut Executor) -> Result<MapOutputs, EngineError> + Sync,
        reduce: impl Fn(&TaskContext, &mut Executor, &[ShufflePayload]) -> Result<R, EngineError> + Sync,
    ) -> Result<Vec<R>, EngineError> {
        self.engine.run_shuffle_job(&mut self.cluster, name, map_tasks, reduce_tasks, map, reduce)
    }

    // ------------------------------------------------------------------
    // roll-ups
    // ------------------------------------------------------------------

    /// Per-stage metrics, in execution order.
    pub fn stages(&self) -> &[StageMetrics] {
        &self.engine.stages
    }

    /// The most recent stage with the given name. Iterative jobs reuse
    /// stage names (multi-iteration PageRank/CC loops), and callers
    /// reading "the" stage after a run want the latest execution — use
    /// [`ClusterSession::stages_named`] for the full history.
    pub fn stage(&self, name: &str) -> Option<&StageMetrics> {
        self.engine.stages.iter().rev().find(|s| s.name == name)
    }

    /// Every execution of the named stage, in run order (indexed access
    /// for repeated-name jobs; `stages_named(n).last()` ==
    /// [`ClusterSession::stage`]`(n)`).
    pub fn stages_named(&self, name: &str) -> Vec<&StageMetrics> {
        self.engine.stages.iter().filter(|s| s.name == name).collect()
    }

    /// Tasks run so far, across all stages (logical tasks; see
    /// [`JobMetrics::attempts`] for runs including retries).
    pub fn total_tasks(&self) -> usize {
        self.engine.stages.iter().map(|s| s.tasks).sum()
    }

    /// Refresh job-level cache statistics on every executor (call before
    /// reading [`ClusterSession::job_summary`] cache fields).
    pub fn finish_job(&mut self) {
        for e in &mut self.cluster.executors {
            e.finish_job();
        }
    }

    /// Aggregate job metrics across executors (sums; exec is the max —
    /// executors run in parallel), plus the fault-handling counters
    /// folded up from every stage run so far.
    pub fn job_summary(&self) -> JobMetrics {
        let mut out = self.cluster.job_summary();
        for s in &self.engine.stages {
            out.add_stage_recovery(s);
        }
        out
    }

    /// All executors' lifetime-timeline samples merged in time order
    /// (each executor samples against its own clock; the merge orders by
    /// per-executor elapsed time, which is what Figures 8a/9a plot).
    pub fn merged_timeline(&self) -> Timeline {
        let mut samples: Vec<_> = self
            .cluster
            .executors
            .iter()
            .flat_map(|e| e.timeline().samples.iter().copied())
            .collect();
        samples.sort_by_key(|s| s.at);
        Timeline { samples }
    }

    /// The slowest task across all executors (Figure 11 reports the
    /// slowest task).
    pub fn slowest_task(&self) -> Option<&crate::metrics::TaskMetrics> {
        self.cluster.executors.iter().filter_map(|e| e.slowest_task()).max_by_key(|t| t.total())
    }

    // ------------------------------------------------------------------
    // run trace
    // ------------------------------------------------------------------

    /// The driver's own trace recorder (stage lifecycle, retries,
    /// quarantines, restarts, OOM recoveries).
    pub fn trace(&self) -> &TraceRecorder {
        &self.engine.trace
    }

    /// The merged run trace: driver events plus every executor's,
    /// deterministically ordered by logical position (see
    /// [`RunTrace::merge`]). Empty when tracing is off.
    pub fn merged_trace(&self) -> RunTrace {
        let executors: Vec<&TraceRecorder> =
            self.cluster.executors.iter().map(|e| &e.trace).collect();
        RunTrace::merge(&self.engine.trace, &executors)
    }

    /// Write the merged trace as Chrome trace-event JSON (loadable in
    /// `chrome://tracing` or Perfetto).
    pub fn export_chrome_trace(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.merged_trace().to_chrome_string())
    }

    /// Write the merged trace's flat run manifest JSON.
    pub fn export_manifest(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.merged_trace().to_manifest_string())
    }

    /// The underlying cluster (raw `par_run` waves, direct executor
    /// iteration).
    pub fn cluster(&self) -> &LocalCluster {
        &self.cluster
    }

    pub fn cluster_mut(&mut self) -> &mut LocalCluster {
        &mut self.cluster
    }
}

/// The standalone slot source: lanes are the cluster's physical executors,
/// and a round runs on one scoped thread per executor.
impl SlotSource for LocalCluster {
    fn lanes(&self) -> usize {
        self.len()
    }

    fn mode(&self) -> ExecutionMode {
        self.executors[0].mode()
    }

    /// A standalone session has no cancel handle and no deadline.
    fn stop_reason(&mut self) -> Option<String> {
        None
    }

    fn is_poisoned(&self, lane: usize) -> bool {
        self.executors[lane].is_poisoned()
    }

    /// The crash wipes the cache's volatile tiers and cold blocks are
    /// rehydrated from the spill manifest, saving their lineage recompute.
    fn restart(&mut self, lane: usize, stage: &str, ordinal: u32) -> (u64, u64) {
        let e = &mut self.executors[lane];
        let out = e.restart_in_place(stage, ordinal);
        if out.killed {
            e.poison();
        }
        (out.rehydrated.len() as u64, out.rehydrated.iter().map(|r| r.1).sum())
    }

    /// Shared-list claiming, affinity-first: each executor drains its own
    /// home slots in ascending task order (the only way pinned slots run,
    /// so a crash dooms exactly its home suffix), then steals remaining
    /// unpinned slots in ascending order, then — under speculation —
    /// watches the round for stragglers to duplicate.
    fn run_round(&mut self, round: Round<'_>) -> Vec<AttemptDone> {
        let executors = self.len();
        let Round { stage, slots, pinned, benched, .. } = &round;
        let claimed: Vec<AtomicBool> = slots.iter().map(|_| AtomicBool::new(false)).collect();
        // Speculation bookkeeping, shared across the round's executor
        // threads. Physical wall-clock here steers *where* duplicates
        // launch — never what the job computes, because the engine
        // reconciles the copies deterministically in task order.
        let spec = round.speculate.then(|| SpecRound::new(slots.len()));
        let (claimed, spec) = (&claimed, &spec);
        // One physical attempt of `(t, a)` on executor `i`: a thief
        // observes its own process's health, never the home's.
        let run = |e: &mut Executor, i, (t, a): (usize, u32), cancel: &AtomicBool, speculative| {
            let poisoned = e.is_poisoned();
            let site = Site {
                task: t,
                attempt: a,
                lane: i,
                executor: i,
                executors,
                poisoned,
                speculative,
                cancel,
            };
            let done = (round.attempt)(e, &site);
            if done.died {
                e.poison();
            }
            done
        };
        let per_executor = self.par_run(|i, e| {
            let mut out = Vec::new();
            if benched[i] {
                return out;
            }
            // One primary (non-duplicate) attempt for slot j. With
            // speculation on, publish who runs it and when it started so
            // idle executors can spot a straggler, and on completion raise
            // the duplicate's cancel token.
            let run_primary = |e: &mut Executor, j: usize, slot: (usize, u32)| {
                let Some(s) = spec else {
                    return run(e, i, slot, &NEVER_CANCELLED, false);
                };
                s.runner[j].store(i, Ordering::Relaxed);
                let start = s.now_ns().max(1);
                s.started[j].store(start, Ordering::Relaxed);
                let done = run(e, i, slot, &s.cancels[j][0], false);
                s.finish(j, start, 1);
                done
            };
            for (j, &(t, a, home)) in slots.iter().enumerate() {
                if home == i && !claimed[j].swap(true, Ordering::Relaxed) {
                    out.push(run_primary(e, j, (t, a)));
                }
            }
            // An executor that crashed this round must not pull in work
            // the wave scheduler would never have handed it.
            for (j, &(t, a, home)) in slots.iter().enumerate() {
                if e.is_poisoned() {
                    break;
                }
                if home == i || pinned[j] || claimed[j].swap(true, Ordering::Relaxed) {
                    continue;
                }
                let sim = e.sim_now();
                e.trace.task_steal(stage, (t, a), home, sim);
                out.push(run_primary(e, j, (t, a)));
            }
            // Speculation pass: every slot is claimed, so an idle executor
            // watches the round instead of returning. Once at least half
            // the round has completed, a primary running past 2× the
            // median completed duration gets a duplicate launched here;
            // first completion raises the loser's cancel token. Pinned
            // (fault-affected) slots are never duplicated — their failure
            // must land on the home executor.
            if let Some(s) = spec {
                'watch: while !e.is_poisoned() && s.finished.load(Ordering::Relaxed) < slots.len() {
                    let Some(stale) = s.stale_threshold_ns(slots.len()) else {
                        std::thread::sleep(Duration::from_micros(200));
                        continue;
                    };
                    let now_ns = s.now_ns();
                    for (j, &(t, a, _)) in slots.iter().enumerate() {
                        if pinned[j] || s.done[j].load(Ordering::Relaxed) {
                            continue;
                        }
                        let started = s.started[j].load(Ordering::Relaxed);
                        if started == 0
                            || s.runner[j].load(Ordering::Relaxed) == i
                            || now_ns.saturating_sub(started) <= stale
                            || s.taken[j].swap(true, Ordering::Relaxed)
                        {
                            continue;
                        }
                        let primary = s.runner[j].load(Ordering::Relaxed);
                        let sim = e.sim_now();
                        e.trace.task_speculative(stage, (t, a), primary, sim);
                        let start = s.now_ns().max(1);
                        out.push(run(e, i, (t, a), &s.cancels[j][1], true));
                        s.finish(j, start, 0);
                        continue 'watch;
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            out
        });
        per_executor.into_iter().flatten().collect()
    }

    fn recycle_payload(&mut self, i: usize, payload: ShufflePayload) {
        let n = self.executors.len();
        self.executors[i % n].recycle_payload(payload);
    }

    fn cache_footprint(&mut self) -> usize {
        self.executors
            .iter_mut()
            .map(|e| {
                e.finish_job();
                e.job.cache_bytes + e.job.swapped_cache_bytes
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultSite;
    use crate::trace::{dur_ns, TraceEventKind};

    fn session(executors: usize) -> ClusterSession {
        ClusterSession::new(executors, ExecutorConfig::new(ExecutionMode::Spark, 8 << 20))
    }

    /// A session pinned to wave scheduling, for tests that assert *which*
    /// executor ran a task — under pull scheduling an idle executor may
    /// legitimately steal an unpinned slot, so those attributions are
    /// timing-dependent there by design.
    fn wave_session(executors: usize) -> ClusterSession {
        ClusterSession::new(
            executors,
            ExecutorConfig::new(ExecutionMode::Spark, 8 << 20).scheduler(SchedulerMode::Wave),
        )
    }

    #[test]
    fn stage_results_are_in_task_order() {
        for executors in [1, 2, 3, 5] {
            let mut s = session(executors);
            let out = s.run_stage("ids", 7, |ctx, _e| Ok(ctx.task * 10)).unwrap();
            assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60], "{executors} executors");
            assert_eq!(s.stages()[0].tasks, 7);
            assert_eq!(s.stages()[0].attempts, 7, "fault-free: one attempt per task");
            assert_eq!(s.total_tasks(), 7);
        }
    }

    #[test]
    fn tasks_pin_to_executors_round_robin() {
        let mut s = wave_session(2);
        let homes = s.run_stage("home", 5, |ctx, _e| Ok(ctx.executor)).unwrap();
        assert_eq!(homes, vec![0, 1, 0, 1, 0]);
        // Executor-local state persists across stages for the same task
        // index: define a class in stage 1, find it in stage 2.
        s.run_stage("define", 2, |ctx, e| {
            e.heap.define_class(
                deca_heap::ClassBuilder::new(format!("T{}", ctx.task))
                    .field("v", deca_heap::FieldKind::I64),
            );
            Ok(())
        })
        .unwrap();
        let found = s
            .run_stage("lookup", 2, |ctx, e| {
                Ok(e.heap.registry().by_name(&format!("T{}", ctx.task)).is_some())
            })
            .unwrap();
        assert_eq!(found, vec![true, true]);
    }

    #[test]
    fn shuffle_job_exchanges_all_to_all() {
        // Map task t emits its task id to every reducer; each reducer
        // must see every map task's bytes, in map-task order.
        for executors in [1, 2, 4] {
            let mut s = session(executors);
            let got = s
                .run_shuffle_job(
                    "x",
                    3,
                    2,
                    |ctx, e| {
                        Ok((0..2)
                            .map(|_| {
                                let mut run = e.new_run();
                                run.push(&mut e.arena, &[ctx.task as u8]);
                                e.hand_over(run)
                            })
                            .collect())
                    },
                    |_ctx, _e, inputs| {
                        Ok(inputs.iter().map(|b| b.contiguous()[0]).collect::<Vec<u8>>())
                    },
                )
                .unwrap();
            assert_eq!(got, vec![vec![0, 1, 2], vec![0, 1, 2]], "{executors} executors");
            let map_stage = s.stage("x-map").unwrap();
            assert_eq!(map_stage.tasks, 3);
            assert_eq!(map_stage.shuffle_bytes, 6);
            assert_eq!(map_stage.shuffle_pages, 6, "one page per single-record run");
            assert_eq!(s.stage("x-reduce").unwrap().tasks, 2);
        }
    }

    #[test]
    fn mis_sized_map_output_is_a_shuffle_error() {
        let mut s = session(2);
        let err = s
            .run_shuffle_job(
                "bad",
                2,
                3,
                |_ctx, _e| Ok((0..2).map(|_| ShufflePayload::from(Vec::new())).collect()), // wrong: 2 ≠ 3 reducers
                |_ctx, _e, _inputs| Ok(()),
            )
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("reducer outputs"), "{msg}");
        assert!(matches!(err, EngineError::Task { .. }), "carries task attribution");
    }

    #[test]
    fn task_errors_carry_stage_and_task() {
        let mut s = session(3);
        let err = s
            .run_stage("fragile", 4, |ctx, _e| {
                if ctx.task == 2 {
                    Err(EngineError::Shuffle("boom".into()))
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("fragile") && msg.contains("task 2"), "{msg}");
        // The wave itself completed; the other tasks were still recorded.
        assert_eq!(s.stages()[0].tasks, 4);
    }

    #[test]
    fn stage_metrics_accumulate_without_wall_clock_assumptions() {
        let mut s = session(2);
        s.run_stage("alloc", 4, |_ctx, e| {
            let c = e.heap.define_class(
                deca_heap::ClassBuilder::new("A").field("x", deca_heap::FieldKind::I64),
            );
            for _ in 0..1000 {
                e.heap.alloc(c)?;
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(s.total_tasks(), 4);
        assert_eq!(s.cluster().executors.iter().map(|e| e.task_metrics().len()).sum::<usize>(), 4);
        // Metric sanity on counts, not timings: this must never flake on
        // a frozen clock. job_summary sums collection counts across
        // executors.
        let summary = s.job_summary();
        let minors: u64 =
            s.cluster().executors.iter().map(|e| e.heap_stats().minor_collections).sum();
        assert_eq!(summary.minor_gcs, minors);
        assert!(!s.stages().is_empty());
    }

    // ------------------------------------------------------------------
    // fault handling
    // ------------------------------------------------------------------

    #[test]
    fn transient_failure_retries_on_next_executor() {
        let mut s = wave_session(2);
        s.set_retry_policy(RetryPolicy::resilient());
        s.install_faults(FaultPlan::quiet().force(FaultSite::TaskBody, "flaky", Some(1), Some(0)));
        let out = s.run_stage("flaky", 4, |ctx, _e| Ok(ctx.executor)).unwrap();
        // Task 1's first attempt (executor 1) fails; the retry migrates
        // to the next healthy executor, 0.
        assert_eq!(out, vec![0, 0, 0, 1]);
        let st = s.stage("flaky").unwrap();
        assert_eq!((st.tasks, st.attempts, st.retries), (4, 5, 1));
        assert_eq!(st.quarantines, 0, "one failure is under the threshold");
        assert!(st.recovery > Duration::ZERO, "backoff is accounted, not slept");
        assert_eq!(s.job_summary().retries, 1);
    }

    #[test]
    fn crash_poisons_executor_then_quarantines_it() {
        let mut s = wave_session(2);
        s.set_retry_policy(RetryPolicy::resilient());
        s.install_faults(FaultPlan::quiet().force(
            FaultSite::ExecutorCrash,
            "crashy",
            Some(1),
            Some(0),
        ));
        let out = s.run_stage("crashy", 6, |ctx, _e| Ok(ctx.executor)).unwrap();
        // Executor 1's whole queue (tasks 1, 3, 5) fails — the crash on
        // task 1 poisons it — and every retry lands on executor 0.
        assert_eq!(out, vec![0, 0, 0, 0, 0, 0]);
        let st = s.stage("crashy").unwrap();
        assert_eq!((st.attempts, st.retries, st.quarantines), (9, 3, 1));
        assert!(s.health(1).quarantined);
        assert_eq!(s.quarantined_count(), 1);
        assert_eq!(s.job_summary().quarantines, 1);
        // A later stage avoids the quarantined executor entirely.
        let homes = s.run_stage("after", 4, |ctx, _e| Ok(ctx.executor)).unwrap();
        assert_eq!(homes, vec![0, 0, 0, 0]);
        // Recovery returns it to rotation.
        s.recover_executor(1);
        let homes = s.run_stage("healed", 4, |ctx, _e| Ok(ctx.executor)).unwrap();
        assert_eq!(homes, vec![0, 1, 0, 1]);
    }

    #[test]
    fn last_executor_is_restarted_in_place_not_quarantined() {
        let mut s = session(1);
        s.set_retry_policy(RetryPolicy::resilient());
        s.install_faults(FaultPlan::quiet().force(
            FaultSite::ExecutorCrash,
            "solo",
            Some(0),
            Some(0),
        ));
        let out = s.run_stage("solo", 3, |ctx, _e| Ok(ctx.task)).unwrap();
        assert_eq!(out, vec![0, 1, 2]);
        let st = s.stage("solo").unwrap();
        assert_eq!(st.quarantines, 0, "the last healthy executor is never quarantined");
        assert_eq!(st.restarts, 1);
        assert_eq!(s.health(0).restarts, 1);
        assert!(!s.health(0).quarantined);
        assert_eq!(s.job_summary().restarts, 1);
    }

    #[test]
    fn forced_alloc_failure_recovers_by_spilling_in_place() {
        // Even under the default fail-fast policy (max_attempts = 1), OOM
        // degrades gracefully: spill, collect, re-run in place.
        let mut s = session(2);
        s.install_faults(FaultPlan::quiet().force(FaultSite::Alloc, "mem", Some(2), Some(0)));
        let out = s.run_stage("mem", 4, |ctx, _e| Ok(ctx.task)).unwrap();
        assert_eq!(out, vec![0, 1, 2, 3]);
        let st = s.stage("mem").unwrap();
        assert_eq!(st.oom_recoveries, 1);
        assert_eq!(st.retries, 0, "absorbed in place, no driver-level retry");
        assert_eq!(s.job_summary().oom_recoveries, 1);
    }

    #[test]
    fn shuffle_frame_corruption_forces_map_rerun() {
        let mut s = session(2);
        s.set_retry_policy(RetryPolicy::resilient());
        s.install_faults(FaultPlan::quiet().force(
            FaultSite::ShuffleFrame,
            "x-map",
            Some(0),
            Some(0),
        ));
        let got = s
            .run_shuffle_job(
                "x",
                3,
                2,
                |ctx, e| {
                    Ok((0..2)
                        .map(|_| {
                            let mut run = e.new_run();
                            run.push(&mut e.arena, &[ctx.task as u8]);
                            e.hand_over(run)
                        })
                        .collect())
                },
                |_ctx, _e, inputs| {
                    Ok(inputs.iter().map(|b| b.contiguous()[0]).collect::<Vec<u8>>())
                },
            )
            .unwrap();
        // Corrupt frames are never consumed: the map task re-executes and
        // the exchange sees only clean bytes.
        assert_eq!(got, vec![vec![0, 1, 2], vec![0, 1, 2]]);
        assert_eq!(s.stage("x-map").unwrap().retries, 1);
        assert_eq!(s.stage("x-reduce").unwrap().retries, 0);
        // The same site never fires on a non-shuffle stage.
        let mut s2 = session(2);
        s2.set_retry_policy(RetryPolicy::resilient());
        s2.install_faults(FaultPlan::quiet().force(FaultSite::ShuffleFrame, "plain", None, None));
        s2.run_stage("plain", 4, |_ctx, _e| Ok(())).unwrap();
        assert_eq!(s2.stage("plain").unwrap().retries, 0);
    }

    #[test]
    fn attempts_exhausted_fails_with_task_attributed_transient_error() {
        let mut s = session(2);
        s.set_retry_policy(RetryPolicy::resilient().max_attempts(2));
        // Fails on every attempt: survivability is impossible.
        s.install_faults(FaultPlan::quiet().force(FaultSite::TaskBody, "doom", Some(1), None));
        let err = s.run_stage("doom", 2, |_ctx, _e| Ok(())).unwrap_err();
        assert!(matches!(err, EngineError::Task { .. }), "task-attributed: {err}");
        assert!(err.is_transient(), "classification survives the wrapper");
        assert!(err.to_string().contains("doom"), "{err}");
        // The failed stage is still recorded, with its attempts.
        let st = s.stage("doom").unwrap();
        assert_eq!(st.tasks, 2);
        assert!(st.attempts >= 3, "original wave plus at least one retry");
    }

    #[test]
    fn losing_every_executor_fails_cleanly() {
        let mut s = session(2);
        s.set_retry_policy(RetryPolicy::resilient().quarantine_after(1).spare_last_executor(false));
        s.install_faults(FaultPlan::quiet().force(FaultSite::ExecutorCrash, "melt", None, None));
        let err = s.run_stage("melt", 4, |_ctx, _e| Ok(())).unwrap_err();
        assert!(matches!(err, EngineError::Task { .. }), "{err}");
        assert!(err.is_transient());
        assert_eq!(s.quarantined_count(), 2, "both executors ended up quarantined");
        // A subsequent stage on a fully quarantined cluster fails
        // immediately (and is still recorded).
        let err = s.run_stage("after", 1, |_ctx, _e| Ok(())).unwrap_err();
        assert!(matches!(err, EngineError::Task { .. }), "{err}");
        assert!(s.stage("after").is_some());
    }

    #[test]
    fn all_quarantined_abort_blames_cluster_state_with_zeroed_row() {
        // Regression: the up-front abort used to report `ExecutorLost
        // { executor: t % executors }` — an arbitrary round-robin slot —
        // and push a half-initialized row (tasks set, zero attempts).
        let mut s = session(2);
        s.set_retry_policy(RetryPolicy::resilient().quarantine_after(1).spare_last_executor(false));
        s.install_faults(FaultPlan::quiet().force(FaultSite::ExecutorCrash, "melt", None, None));
        s.run_stage("melt", 4, |_ctx, _e| Ok(())).unwrap_err();
        assert_eq!(s.quarantined_count(), s.executors(), "no healthy executor is left");
        let err = s.run_stage("after", 3, |_ctx, _e| Ok(())).unwrap_err();
        // The cause names the cluster state, not a scapegoat executor.
        match &err {
            EngineError::Task { stage, source, .. } => {
                assert_eq!(stage, "after");
                assert!(
                    matches!(
                        **source,
                        EngineError::AllExecutorsLost { executors: 2, quarantined: 2 }
                    ),
                    "cause must be the all-quarantined cluster: {source}"
                );
            }
            other => panic!("expected task-wrapped AllExecutorsLost, got {other}"),
        }
        assert!(err.is_transient());
        assert!(err.to_string().contains("no healthy executors"), "{err}");
        // The recorded row is zeroed and flagged, never half-initialized.
        let st = s.stage("after").unwrap();
        assert!(st.aborted);
        assert_eq!((st.tasks, st.attempts, st.retries), (0, 0, 0));
        assert_eq!(st.exec, Duration::ZERO);
        // Stages that actually ran are not marked aborted.
        assert!(!s.stage("melt").unwrap().aborted);
    }

    #[test]
    fn repeated_stage_names_read_most_recent_and_index_all() {
        // Iterative jobs reuse stage names; `stage()` must read the most
        // recent execution, and `stages_named` exposes the history.
        let mut s = session(2);
        for iter in 0..3u64 {
            s.run_stage("pr-iter", 2 + iter as usize, |ctx, _e| Ok(ctx.task)).unwrap();
        }
        assert_eq!(s.stage("pr-iter").unwrap().tasks, 4, "most recent execution wins");
        let all = s.stages_named("pr-iter");
        assert_eq!(all.iter().map(|st| st.tasks).collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(
            all.last().map(|st| st.tasks),
            s.stage("pr-iter").map(|st| st.tasks),
            "stage() is stages_named().last()"
        );
        assert!(s.stages_named("absent").is_empty());
    }

    #[test]
    fn oom_rerun_is_counted_as_a_physical_attempt_not_a_retry() {
        // Regression for the attempts accounting: the OOM in-place re-run
        // is a physical task run. It used to vanish from `attempts`
        // (under-counting the work the cluster did).
        let mut s = session(2);
        s.install_faults(FaultPlan::quiet().force(FaultSite::Alloc, "mem", Some(2), Some(0)));
        s.run_stage("mem", 4, |ctx, _e| Ok(ctx.task)).unwrap();
        let st = s.stage("mem").unwrap();
        assert_eq!(st.tasks, 4);
        assert_eq!(st.oom_reruns, 1);
        assert_eq!(st.oom_recoveries, 1);
        assert_eq!(st.retries, 0);
        assert_eq!(st.attempts, 5, "4 scheduled + 1 in-place re-run");
        assert_eq!(
            st.attempts,
            st.tasks as u64 + st.retries + st.oom_reruns,
            "the attempts invariant"
        );
        let j = s.job_summary();
        assert_eq!((j.oom_reruns, j.oom_recoveries, j.attempts), (1, 1, 5));
    }

    // ------------------------------------------------------------------
    // run trace
    // ------------------------------------------------------------------

    #[test]
    fn trace_records_stage_lifecycle_and_attempts() {
        use crate::trace::TraceEventKind;
        let mut s = wave_session(2);
        s.run_stage("ids", 3, |ctx, _e| Ok(ctx.task)).unwrap();
        let t = s.merged_trace();
        assert_eq!(t.of_kind(TraceEventKind::StageStart).count(), 1);
        assert_eq!(t.of_kind(TraceEventKind::StageEnd).count(), 1);
        assert_eq!(t.of_kind(TraceEventKind::TaskAttempt).count(), 3);
        // Logical order: start, attempts by task index, end.
        assert_eq!(t.events.first().unwrap().kind, TraceEventKind::StageStart);
        assert_eq!(t.events.last().unwrap().kind, TraceEventKind::StageEnd);
        let tasks: Vec<Option<usize>> =
            t.of_kind(TraceEventKind::TaskAttempt).map(|e| e.task).collect();
        assert_eq!(tasks, vec![Some(0), Some(1), Some(2)]);
        // Attempts are attributed to the round-robin executor.
        let execs: Vec<Option<usize>> =
            t.of_kind(TraceEventKind::TaskAttempt).map(|e| e.executor).collect();
        assert_eq!(execs, vec![Some(0), Some(1), Some(0)]);
        assert_eq!(t.events.last().unwrap().count, 3, "StageEnd carries attempts");
    }

    #[test]
    fn trace_records_fault_handling_events() {
        use crate::trace::TraceEventKind;
        let mut s = session(2);
        s.set_retry_policy(RetryPolicy::resilient());
        s.install_faults(FaultPlan::quiet().force(FaultSite::TaskBody, "flaky", Some(1), Some(0)));
        s.run_stage("flaky", 4, |ctx, _e| Ok(ctx.executor)).unwrap();
        let t = s.merged_trace();
        let retries: Vec<&crate::trace::TraceEvent> = t.of_kind(TraceEventKind::Retry).collect();
        assert_eq!(retries.len(), 1);
        assert_eq!(retries[0].task, Some(1));
        assert_eq!(retries[0].executor, Some(1), "failed on executor 1");
        assert_eq!(retries[0].count, 0, "rescheduled onto executor 0");
        // 4 first attempts + 1 retry = 5 TaskAttempt events.
        assert_eq!(t.of_kind(TraceEventKind::TaskAttempt).count(), 5);
        // The retried attempt carries attempt=1.
        assert!(t
            .of_kind(TraceEventKind::TaskAttempt)
            .any(|e| e.task == Some(1) && e.attempt == 1));
    }

    #[test]
    fn trace_records_oom_recovery_and_disabled_tracing_is_empty() {
        use crate::trace::TraceEventKind;
        let mut s = session(2);
        s.install_faults(FaultPlan::quiet().force(FaultSite::Alloc, "mem", Some(2), Some(0)));
        s.run_stage("mem", 4, |ctx, _e| Ok(ctx.task)).unwrap();
        let t = s.merged_trace();
        assert_eq!(t.of_kind(TraceEventKind::OomRecovery).count(), 1);
        // Both the failed attempt and the in-place re-run are attempts.
        assert_eq!(t.of_kind(TraceEventKind::TaskAttempt).count(), 5);

        // With tracing off, nothing is recorded anywhere.
        let cfg = ExecutorConfig::new(ExecutionMode::Spark, 8 << 20).tracing(false);
        let mut quiet = ClusterSession::new(2, cfg);
        quiet.run_stage("ids", 3, |ctx, _e| Ok(ctx.task)).unwrap();
        assert!(quiet.merged_trace().is_empty());
    }

    // ------------------------------------------------------------------
    // pull scheduler
    // ------------------------------------------------------------------

    #[test]
    fn pull_scheduler_matches_wave_results_and_emits_steals() {
        // A straggling home slot forces steals — structurally, not by
        // wall clock: under pull, task 0 holds executor 0 until some
        // task observes itself stolen (running off its home executor),
        // which executor 1 is guaranteed to do once it drains its
        // affinity set {1, 3, 5} and pulls executor 0's remaining slots
        // {2, 4}. A bounded spin caps the wait so a scheduler regression
        // fails the steal assertion instead of hanging the suite.
        let run = |mode: SchedulerMode| {
            let cfg = ExecutorConfig::new(ExecutionMode::Spark, 8 << 20).scheduler(mode);
            let mut s = ClusterSession::new(2, cfg);
            assert_eq!(s.scheduler(), mode);
            let stolen = AtomicBool::new(false);
            let out = s
                .run_stage("skew", 6, |ctx, _e| {
                    if ctx.executor != ctx.task % 2 {
                        stolen.store(true, Ordering::SeqCst);
                    }
                    if mode == SchedulerMode::Pull && ctx.task == 0 {
                        for _ in 0..50_000 {
                            if stolen.load(Ordering::SeqCst) {
                                break;
                            }
                            std::thread::sleep(Duration::from_micros(100));
                        }
                    }
                    Ok(ctx.task * 3)
                })
                .unwrap();
            let trace = s.merged_trace();
            let steals: Vec<(Option<usize>, u64, Option<usize>)> = trace
                .of_kind(TraceEventKind::TaskSteal)
                .map(|e| (e.task, e.count, e.executor))
                .collect();
            (out, steals, s.stage("skew").unwrap().attempts)
        };
        let (wave_out, wave_steals, wave_attempts) = run(SchedulerMode::Wave);
        let (pull_out, pull_steals, pull_attempts) = run(SchedulerMode::Pull);
        assert_eq!(wave_out, pull_out, "results are scheduler-independent");
        assert_eq!(pull_out, (0..6).map(|t| t * 3).collect::<Vec<_>>());
        assert_eq!(wave_attempts, pull_attempts);
        assert!(wave_steals.is_empty(), "wave scheduling never steals");
        assert!(!pull_steals.is_empty(), "the straggler's affinity slots must be stolen");
        for (task, home, thief) in &pull_steals {
            let t = task.expect("steal events carry the task index");
            assert_eq!(*home as usize, t % 2, "count is the home executor");
            assert_ne!(thief.unwrap(), *home as usize, "a steal crosses executors");
        }
    }

    #[test]
    fn pull_preserves_fault_rollups_and_attribution() {
        // The crash scenario from `crash_poisons_executor_then_
        // quarantines_it`, under pull: fault pinning must reproduce the
        // wave's roll-ups exactly, and poisoned executor 1 must not
        // steal work after its crash.
        let cfg = ExecutorConfig::new(ExecutionMode::Spark, 8 << 20).scheduler(SchedulerMode::Pull);
        let mut s = ClusterSession::new(2, cfg);
        s.set_retry_policy(RetryPolicy::resilient());
        s.install_faults(FaultPlan::quiet().force(
            FaultSite::ExecutorCrash,
            "crashy",
            Some(1),
            Some(0),
        ));
        let out = s.run_stage("crashy", 6, |ctx, _e| Ok(ctx.executor)).unwrap();
        // Tasks 1, 3, 5 are pinned to (and fail on) executor 1; retries
        // land on executor 0, the only healthy one left.
        assert_eq!(out, vec![0, 0, 0, 0, 0, 0]);
        let st = s.stage("crashy").unwrap();
        assert_eq!((st.attempts, st.retries, st.quarantines), (9, 3, 1));
        assert!(s.health(1).quarantined);
        // The quarantined executor claims nothing in later stages.
        let homes = s.run_stage("after", 4, |ctx, _e| Ok(ctx.executor)).unwrap();
        assert_eq!(homes, vec![0, 0, 0, 0]);
    }

    // ------------------------------------------------------------------
    // watchdog: hangs, deadlines, speculation
    // ------------------------------------------------------------------

    #[test]
    fn hung_task_is_timed_out_charged_and_retried() {
        for mode in [SchedulerMode::Wave, SchedulerMode::Pull] {
            let cfg = ExecutorConfig::new(ExecutionMode::Spark, 8 << 20).scheduler(mode);
            let mut s = ClusterSession::new(2, cfg);
            s.set_retry_policy(RetryPolicy::resilient().task_deadline(Duration::from_millis(25)));
            s.install_faults(FaultPlan::quiet().force(
                FaultSite::TaskHang,
                "hang",
                Some(1),
                Some(0),
            ));
            let out = s.run_stage("hang", 4, |ctx, _e| Ok(ctx.task * 2)).unwrap();
            assert_eq!(out, vec![0, 2, 4, 6], "{mode}: the retry recomputes the hung task");
            let st = s.stage("hang").unwrap();
            assert_eq!(
                (st.attempts, st.retries, st.timeouts),
                (5, 1, 1),
                "{mode}: the hang is one timed-out attempt plus one retry"
            );
            assert_eq!(st.quarantines, 0, "{mode}: one timeout is under the threshold");
            assert!(
                st.recovery >= Duration::from_millis(25),
                "{mode}: the deadline budget is charged in simulated time, never slept"
            );
            assert_eq!(s.job_summary().timeouts, 1, "{mode}: timeouts roll up to the job");
            let trace = s.merged_trace();
            let timeouts: Vec<_> = trace.of_kind(TraceEventKind::TaskTimeout).collect();
            assert_eq!(timeouts.len(), 1, "{mode}");
            assert_eq!(timeouts[0].task, Some(1), "{mode}");
            assert_eq!(
                timeouts[0].sim_dur_ns,
                dur_ns(Duration::from_millis(25)),
                "{mode}: the event carries the charged budget"
            );
        }
    }

    #[test]
    fn hang_without_a_configured_deadline_uses_the_default_budget() {
        let mut s = wave_session(2);
        s.set_retry_policy(RetryPolicy::resilient());
        s.install_faults(FaultPlan::quiet().force(FaultSite::TaskHang, "h", Some(0), Some(0)));
        let out = s.run_stage("h", 2, |ctx, _e| Ok(ctx.task)).unwrap();
        assert_eq!(out, vec![0, 1]);
        let st = s.stage("h").unwrap();
        assert_eq!(st.timeouts, 1);
        assert!(st.recovery >= Duration::from_millis(100), "default 100ms budget charged");
    }

    #[test]
    fn speculation_duplicates_stragglers_without_changing_results() {
        // With speculation on, the first copy of task 0 to start — by
        // construction its primary — holds its executor until its cancel
        // token is raised; every other task is instant. The round can only
        // finish if the other executor spots the straggler and runs a
        // duplicate that completes and cancels the primary: structural, no
        // wall-clock race. A generous cap turns a watcher regression into a
        // task-attributed failure rather than a hang. Results and recovery
        // counters must be bit-identical to the speculation-off run.
        let run = |speculate: bool| {
            let cfg = ExecutorConfig::new(ExecutionMode::Spark, 8 << 20)
                .scheduler(SchedulerMode::Pull)
                .retry(RetryPolicy::resilient().speculate(speculate));
            let mut s = ClusterSession::new(2, cfg);
            let primary_started = AtomicBool::new(false);
            let out = s
                .run_stage("spec", 8, |ctx, _e| {
                    if speculate && ctx.task == 0 && !primary_started.swap(true, Ordering::SeqCst) {
                        for _ in 0..30_000 {
                            if ctx.is_cancelled() {
                                return Err(EngineError::Cancelled {
                                    reason: "duplicate won".to_string(),
                                });
                            }
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        panic!("no speculative duplicate cancelled the straggler within 30 s");
                    }
                    Ok(ctx.task * 7)
                })
                .unwrap();
            let st = s.stage("spec").unwrap().clone();
            let speculative_events =
                s.merged_trace().of_kind(TraceEventKind::TaskSpeculative).count();
            (out, st, speculative_events)
        };
        let (base_out, base, base_events) = run(false);
        let (spec_out, spec, spec_events) = run(true);
        assert_eq!(base_out, spec_out, "speculation never changes results");
        assert_eq!(spec_out, (0..8).map(|t| t * 7).collect::<Vec<_>>());
        let rollup = |st: &StageMetrics| {
            (st.attempts, st.retries, st.quarantines, st.restarts, st.oom_reruns, st.oom_recoveries)
        };
        assert_eq!(
            rollup(&base),
            rollup(&spec),
            "the six recovery counters are identical with speculation on and off"
        );
        assert_eq!(spec.attempts, 8, "the losing duplicate never reaches the counters");
        assert_eq!((base.speculative_launched, base_events), (0, 0), "off means off");
        assert!(spec.speculative_launched >= 1, "the straggler gets a duplicate");
        assert!(spec_events >= 1, "the launch is traced");
        assert!(spec.speculative_wins >= 1, "only a winning duplicate can end the round");
        assert!(
            spec.speculative_wins <= spec.speculative_launched,
            "wins are a subset of launches"
        );
    }

    #[test]
    fn natural_failure_in_stolen_task_charges_the_thief() {
        // The pull scheduler's charging rule, pinned: fault *pinning*
        // only covers injected faults, so a natural failure in a stolen
        // task is charged to the executor that ran it — the thief. This
        // is deliberate (health tracks where failures physically happen,
        // and natural failures are not part of the deterministic fault
        // scenario), and it is why quiet-plan runs may attribute
        // failures differently across schedulers.
        let cfg = ExecutorConfig::new(ExecutionMode::Spark, 8 << 20).scheduler(SchedulerMode::Pull);
        let mut s = ClusterSession::new(2, cfg);
        s.set_retry_policy(RetryPolicy::resilient());
        let tripped = AtomicBool::new(false);
        let holding = AtomicBool::new(false);
        let failed_task = AtomicUsize::new(usize::MAX);
        let failed_on = AtomicUsize::new(usize::MAX);
        let out = s
            .run_stage("stolen", 6, |ctx, _e| {
                // The first stolen attempt (one running off its home
                // executor) fails naturally, once.
                if ctx.executor != ctx.task % 2 && !tripped.swap(true, Ordering::SeqCst) {
                    failed_task.store(ctx.task, Ordering::Relaxed);
                    failed_on.store(ctx.executor, Ordering::Relaxed);
                    return Err(EngineError::Shuffle("flaky input".to_string()));
                }
                // Executor 0's first attempt holds it until that has
                // happened, so executor 1 is guaranteed to steal one of
                // executor 0's home slots — structural forcing, whichever
                // thread starts first; the bounded spin turns a scheduler
                // regression into an assertion failure rather than a hang.
                if ctx.executor == 0 && !holding.swap(true, Ordering::SeqCst) {
                    for _ in 0..50_000 {
                        if tripped.load(Ordering::SeqCst) {
                            break;
                        }
                        std::thread::sleep(Duration::from_micros(100));
                    }
                }
                Ok(ctx.task + 100)
            })
            .unwrap();
        assert_eq!(out, (0..6).map(|t| t + 100).collect::<Vec<_>>());
        let st = s.stage("stolen").unwrap();
        assert_eq!((st.attempts, st.retries), (7, 1));
        let failed = failed_task.load(Ordering::Relaxed);
        assert_eq!(failed % 2, 0, "the failed task is one of executor 0's home slots");
        let stole_it =
            s.merged_trace().of_kind(TraceEventKind::TaskSteal).any(|e| e.task == Some(failed));
        assert!(stole_it, "task {failed} must be stolen while its home straggles");
        let thief = failed_on.load(Ordering::Relaxed);
        assert_eq!(thief, 1, "the failure happened on the thief");
        assert_eq!(
            s.health(1).stage_failures,
            1,
            "the natural failure is charged to the thief's health"
        );
        assert_eq!(s.health(0).stage_failures, 0, "the home executor is not charged");
    }

    #[test]
    fn exec_critical_path_is_bounded_by_task_totals() {
        // Regression for the stage.exec semantics: under either
        // scheduler the critical path can never exceed the sum of all
        // task totals, nor undercut the single slowest task. (The
        // wave-era bug summed per-round maxima, which can exceed the
        // busiest executor when rounds alternate who is busy; Pull
        // computes max per-executor busy time directly.)
        for mode in [SchedulerMode::Wave, SchedulerMode::Pull] {
            let cfg = ExecutorConfig::new(ExecutionMode::Spark, 8 << 20).scheduler(mode);
            let mut s = ClusterSession::new(2, cfg);
            s.set_retry_policy(RetryPolicy::resilient());
            // A retried failure adds a second scheduling round, so the
            // bound is exercised over multiple rounds, not just one.
            s.install_faults(FaultPlan::quiet().force(
                FaultSite::TaskBody,
                "work",
                Some(1),
                Some(0),
            ));
            s.run_stage("work", 5, |_ctx, e| {
                let c = e.heap.define_class(
                    deca_heap::ClassBuilder::new("W").field("x", deca_heap::FieldKind::I64),
                );
                for _ in 0..1000 {
                    e.heap.alloc(c)?;
                }
                Ok(())
            })
            .unwrap();
            let st = s.stage("work").unwrap();
            let totals: Vec<Duration> = s
                .cluster()
                .executors
                .iter()
                .flat_map(|e| e.task_metrics().iter().map(|t| t.total()))
                .collect();
            let sum: Duration = totals.iter().sum();
            let max = *totals.iter().max().unwrap();
            assert!(st.exec <= sum, "{mode}: exec {:?} > sum of task totals {:?}", st.exec, sum);
            assert!(st.exec >= max, "{mode}: exec {:?} < slowest task {:?}", st.exec, max);
        }
    }

    #[test]
    fn chrome_export_of_a_real_run_roundtrips() {
        let mut s = session(2);
        s.run_shuffle_job(
            "x",
            3,
            2,
            |ctx, e| {
                Ok((0..2)
                    .map(|_| {
                        let mut run = e.new_run();
                        run.push(&mut e.arena, &[ctx.task as u8]);
                        e.hand_over(run)
                    })
                    .collect())
            },
            |_ctx, _e, inputs| Ok(inputs.iter().map(|b| b.contiguous()[0]).collect::<Vec<u8>>()),
        )
        .unwrap();
        let t = s.merged_trace();
        assert!(!t.is_empty());
        let text = t.to_chrome_string();
        assert_eq!(RunTrace::validate_chrome_document(&text), Ok(t.len()));
        let back = RunTrace::from_chrome_string(&text).unwrap();
        assert_eq!(back, t);
        // The manifest sees both stages with their attempt counts, and the
        // map stage's zero-copy hand-overs.
        let manifest = t.to_manifest_json();
        let stages = manifest.get("stages").unwrap().as_array().unwrap();
        let names: Vec<&str> =
            stages.iter().filter_map(|s| s.get("name").and_then(|n| n.as_str())).collect();
        assert_eq!(names, vec!["x-map", "x-reduce"]);
        assert_eq!(stages[0].get("attempts").unwrap().as_u64(), Some(3));
        assert_eq!(stages[1].get("attempts").unwrap().as_u64(), Some(2));
        assert_eq!(stages[0].get("pages_handed").unwrap().as_u64(), Some(6));
        assert_eq!(stages[0].get("handover_bytes").unwrap().as_u64(), Some(6));
    }

    #[test]
    fn merged_timeline_merges_without_duplication() {
        // Regression: merging used to deep-clone every executor's sample
        // vector per call; repeated merges must return the same samples,
        // exactly once each, still sorted by per-executor elapsed time.
        let mut s = session(2);
        for (i, e) in s.cluster.executors.iter_mut().enumerate() {
            e.timeline.record(Duration::from_millis(i as u64), 10 + i, Duration::ZERO);
            e.timeline.record(Duration::from_millis(10 + i as u64), 20 + i, Duration::ZERO);
        }
        let once = s.merged_timeline();
        let twice = s.merged_timeline();
        assert_eq!(once.samples.len(), 4, "each executor's two samples appear exactly once");
        assert_eq!(once, twice, "re-merging must not duplicate or reorder samples");
        assert!(once.samples.windows(2).all(|w| w[0].at <= w[1].at), "sorted by elapsed time");
        // The executors' own timelines are untouched by the merge.
        assert!(s.cluster.executors.iter().all(|e| e.timeline.samples.len() == 2));
    }

    /// A page-run shuffle job for the fault-invariance and hand-over
    /// tests: map task t emits four 4-byte records per reducer; reduce
    /// concatenates its inputs in map-task order.
    fn run_page_shuffle(s: &mut ClusterSession, name: &str) -> Result<Vec<Vec<u8>>, EngineError> {
        s.run_shuffle_job(
            name,
            4,
            3,
            |ctx, e| {
                Ok((0..3u8)
                    .map(|r| {
                        let mut run = e.new_run();
                        for i in 0..4u8 {
                            run.push(&mut e.arena, &[ctx.task as u8, r, i, 0xAB]);
                        }
                        e.hand_over(run)
                    })
                    .collect())
            },
            |_ctx, _e, inputs| {
                let mut out = Vec::new();
                for p in inputs {
                    for c in p.chunks() {
                        out.extend_from_slice(c);
                    }
                }
                Ok(out)
            },
        )
    }

    #[test]
    fn shuffle_bytes_rollup_is_fault_invariant() {
        // The exchanged-byte roll-up counts the winning attempts' outputs
        // only: retries, OOM re-runs, crashes, and speculation must all
        // report the fault-free value (and the fault-free bytes).
        let run = |faults: Option<FaultPlan>, speculate: bool| {
            let mut s = session(2);
            s.set_retry_policy(RetryPolicy::resilient().speculate(speculate));
            if let Some(f) = faults {
                s.install_faults(f);
            }
            let got = run_page_shuffle(&mut s, "sb").unwrap();
            let st = s.stage("sb-map").unwrap();
            (got, st.shuffle_bytes, st.shuffle_pages, st.clone())
        };
        let (base_out, base_bytes, base_pages, _) = run(None, false);
        assert_eq!(base_bytes, 4 * 3 * 16, "4 maps x 3 reducers x 4 records x 4 bytes");
        let scenarios: Vec<(&str, FaultPlan)> = vec![
            (
                "map retry",
                FaultPlan::quiet().force(FaultSite::TaskBody, "sb-map", Some(1), Some(0)),
            ),
            (
                "corrupt frame rerun",
                FaultPlan::quiet().force(FaultSite::ShuffleFrame, "sb-map", Some(0), Some(0)),
            ),
            ("oom rerun", FaultPlan::quiet().force(FaultSite::Alloc, "sb-map", Some(2), Some(0))),
            (
                "executor crash",
                FaultPlan::quiet().force(FaultSite::ExecutorCrash, "sb-map", Some(3), Some(0)),
            ),
        ];
        for (label, plan) in scenarios {
            let (out, bytes, pages, st) = run(Some(plan), false);
            assert_eq!(out, base_out, "{label}: results are fault-invariant");
            assert_eq!(bytes, base_bytes, "{label}: shuffle_bytes counts winners only");
            assert_eq!(pages, base_pages, "{label}: shuffle_pages counts winners only");
            assert!(
                st.retries + st.oom_reruns + st.restarts >= 1,
                "{label}: the fault actually fired"
            );
        }
        let (out, bytes, pages, _) = run(None, true);
        assert_eq!((out, bytes, pages), (base_out, base_bytes, base_pages), "speculation");
    }

    #[test]
    fn partial_handover_retry_neither_leaks_nor_double_frees_pages() {
        // A map attempt that dies *after* handing over part of its output
        // must not leak those pages, free them twice, or let them reach a
        // reducer — the retry's fresh runs are the only ones exchanged.
        for mode in [SchedulerMode::Wave, SchedulerMode::Pull] {
            partial_handover_under(mode);
        }
    }

    fn partial_handover_under(mode: SchedulerMode) {
        let first = AtomicBool::new(true);
        let seen = std::sync::Mutex::new(std::collections::HashSet::<usize>::new());
        let cfg = ExecutorConfig::new(ExecutionMode::Spark, 8 << 20).scheduler(mode);
        let mut s = ClusterSession::new(2, cfg);
        s.set_retry_policy(RetryPolicy::resilient());
        let got = s
            .run_shuffle_job(
                "ph",
                3,
                2,
                |ctx, e| {
                    let mut out = Vec::new();
                    for r in 0..2u8 {
                        let mut run = e.new_run();
                        run.push(&mut e.arena, &[ctx.task as u8, r]);
                        out.push(e.hand_over(run));
                        if ctx.task == 0 && r == 0 && first.swap(false, Ordering::SeqCst) {
                            return Err(EngineError::Shuffle("killed mid-handover".into()));
                        }
                    }
                    Ok(out)
                },
                |_ctx, _e, inputs| {
                    let mut ptrs = seen.lock().unwrap();
                    let mut bytes = Vec::new();
                    for p in inputs {
                        for c in p.chunks() {
                            assert!(
                                ptrs.insert(c.as_ptr() as usize),
                                "a page was observed by two reducers"
                            );
                            bytes.extend_from_slice(c);
                        }
                    }
                    Ok(bytes)
                },
            )
            .unwrap();
        // Bit-identical to a fault-free run: only winning attempts' pages
        // were exchanged, in map-task order.
        assert_eq!(got, vec![vec![0, 0, 1, 0, 2, 0], vec![0, 1, 1, 1, 2, 1]]);
        assert_eq!(s.stage("ph-map").unwrap().retries, 1);
        for (i, e) in s.cluster.executors.iter().enumerate() {
            let stats = e.arena.stats();
            assert_eq!(
                stats.live_pages(),
                0,
                "{mode}, executor {i}: every page settled once (>0 leaks, <0 double-frees)"
            );
            assert_eq!(stats.copied_bytes(), 0, "{mode}, executor {i}: hand-over never copies");
        }
    }

    #[test]
    fn deca_handover_copies_zero_bytes_and_delivers_the_expected_bytes() {
        // Zero-copy hand-over: the exchange moves page ownership.
        let mut s = session(2);
        let got = run_page_shuffle(&mut s, "zc").unwrap();
        let (copied, handed_runs, handed_bytes): (u64, u64, u64) =
            s.cluster.executors.iter().map(|e| e.arena.stats()).fold((0, 0, 0), |acc, st| {
                (acc.0 + st.copied_bytes(), acc.1 + st.handed_runs(), acc.2 + st.handed_bytes())
            });
        assert_eq!(copied, 0, "zero bytes copied on the Deca hand-over path");
        assert_eq!(handed_runs, 4 * 3, "every per-reducer run was handed over");
        assert_eq!(handed_bytes, 4 * 3 * 16);
        assert!(s.merged_trace().of_kind(TraceEventKind::PageHandover).count() >= 1);

        // What each reducer must see, computed without the engine: its
        // four records from every map task, in map-task order.
        let expected: Vec<Vec<u8>> = (0..3u8)
            .map(|r| (0..4u8).flat_map(|t| (0..4u8).flat_map(move |i| [t, r, i, 0xAB])).collect())
            .collect();
        assert_eq!(got, expected, "ownership transfer delivers every byte, in order");
    }
}
