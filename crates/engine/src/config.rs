//! Executor configuration: heap sizing, memory fractions, execution mode.
//!
//! The knobs mirror the settings the paper's experiments vary: executor
//! heap size (§6, 20–30 GB there, MB-scale here), the storage memory
//! fraction of Table 4, and the collector algorithm.

use std::path::PathBuf;
use std::time::Duration;

use deca_heap::GcAlgorithm;

/// Driver-side fault-handling knobs: how many times a task may run, when a
/// misbehaving executor is quarantined, and how hung or slow attempts are
/// handled.
///
/// The default policy preserves the pre-fault-tolerance behaviour for task
/// errors — one attempt, first failure aborts. Two recovery paths are not
/// knobs because every run takes them: a memory-pressure failure spills
/// the executor's cache and re-runs once in place (what the paper's
/// substrate does rather than dying under memory pressure), and a crashed
/// executor restarts with its volatile cache tiers wiped and its cold
/// blocks rehydrated from the spill manifest.
#[derive(Copy, Clone, Debug)]
pub struct RetryPolicy {
    /// Maximum times one task may run (attempts, not retries): 1 means no
    /// retries, Spark's default of 4 means up to 3 re-runs.
    pub max_attempts: u32,
    /// Quarantine an executor after this many task failures within one
    /// stage (Spark's per-stage blacklisting threshold).
    pub quarantine_after: u32,
    /// Never quarantine the last healthy executor: restart it in place
    /// instead (the cluster-manager-replaces-the-node story). Turning this
    /// off makes crash-heavy plans unsurvivable on purpose.
    pub spare_last_executor: bool,
    /// Per-attempt deadline enforced by the watchdog: an attempt that
    /// hangs (see `FaultSite::TaskHang`) is charged this much simulated
    /// time, failed with the transient `EngineError::Deadline`, and
    /// retried through the normal quarantine machinery. `None` uses the
    /// built-in default budget, so hang plans are always survivable even
    /// without explicit configuration.
    pub task_deadline: Option<Duration>,
    /// Speculative execution (the pull scheduler only): once more than
    /// half a round's claims have completed, an idle executor may launch
    /// a duplicate of a claimed-but-unfinished attempt whose wall time
    /// exceeds twice the round's median completed-task time. First
    /// completion wins; the loser is cancelled cooperatively; the winner
    /// is reconciled deterministically in task order so results and the
    /// recovery roll-up stay bit-identical with speculation off.
    pub speculate: bool,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            quarantine_after: 2,
            spare_last_executor: true,
            task_deadline: None,
            speculate: false,
        }
    }
}

impl RetryPolicy {
    /// Spark-like resilient settings: 4 attempts per task, per-stage
    /// quarantine after 2 failures, graceful OOM degradation.
    pub fn resilient() -> RetryPolicy {
        RetryPolicy { max_attempts: 4, ..RetryPolicy::default() }
    }

    pub fn max_attempts(mut self, n: u32) -> Self {
        self.max_attempts = n.max(1);
        self
    }

    pub fn quarantine_after(mut self, n: u32) -> Self {
        self.quarantine_after = n.max(1);
        self
    }

    pub fn spare_last_executor(mut self, keep: bool) -> Self {
        self.spare_last_executor = keep;
        self
    }

    pub fn task_deadline(mut self, d: Duration) -> Self {
        self.task_deadline = Some(d);
        self
    }

    pub fn speculate(mut self, on: bool) -> Self {
        self.speculate = on;
        self
    }

    /// The deadline budget the watchdog charges a hung attempt: the
    /// configured `task_deadline`, or a 100 ms default so `TaskHang`
    /// plans are survivable without explicit configuration.
    pub fn deadline_budget(&self) -> Duration {
        self.task_deadline.unwrap_or(Duration::from_millis(100))
    }
}

/// How `ClusterSession` hands tasks to executors within one scheduling
/// round (the initial task set, or a batch of retries).
///
/// Both modes produce bit-identical results and identical recovery
/// roll-ups for the same fault plan — the driver pins every
/// fault-affected attempt to its `t % E` home executor so failure
/// charging never depends on claim timing (see DESIGN.md "Task
/// scheduling") — but their wall-clock shape differs:
///
/// * [`Wave`](SchedulerMode::Wave) — the historical scheduler: tasks are
///   statically pinned `t % E` into per-executor queues and every round
///   ends at a barrier, so one straggler idles the other `E-1`
///   executors for the rest of the round.
/// * [`Pull`](SchedulerMode::Pull) — executors claim tasks from a shared
///   list, affinity-first: each drains its own `t % E` set in ascending
///   task order (preserving locality for executor-pinned cache blocks),
///   then steals remaining unpinned tasks in ascending task order.
///   Stolen tasks that miss an executor-local cache block rebuild it
///   through the app's lineage-recompute path.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SchedulerMode {
    /// Static `t % E` queues behind a per-round barrier.
    Wave,
    /// Shared-queue claiming, affinity-first then ascending steals.
    Pull,
}

impl SchedulerMode {
    pub fn name(self) -> &'static str {
        match self {
            SchedulerMode::Wave => "wave",
            SchedulerMode::Pull => "pull",
        }
    }
}

impl std::fmt::Display for SchedulerMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which system is being emulated for a run.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ExecutionMode {
    /// Records as heap object graphs (baseline Spark).
    Spark,
    /// Cached data Kryo-serialized into heap byte blocks (SparkSer).
    SparkSer,
    /// Decomposed pages managed by lifetime (Deca).
    Deca,
}

impl ExecutionMode {
    pub fn name(self) -> &'static str {
        match self {
            ExecutionMode::Spark => "Spark",
            ExecutionMode::SparkSer => "SparkSer",
            ExecutionMode::Deca => "Deca",
        }
    }

    pub const ALL: [ExecutionMode; 3] =
        [ExecutionMode::Spark, ExecutionMode::SparkSer, ExecutionMode::Deca];
}

impl std::fmt::Display for ExecutionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of one executor: `ExecutorConfig::new(mode, heap_bytes)`
/// with Table 4's defaults, then a setter per knob a run changes.
#[derive(Clone, Debug)]
pub struct ExecutorConfig {
    pub mode: ExecutionMode,
    /// Total simulated heap bytes (young + old).
    pub heap_bytes: usize,
    /// Fraction of the heap the cache manager may fill before evicting
    /// (Spark's `storage.memoryFraction`; Table 4 sweeps it).
    pub storage_fraction: f64,
    /// The executor heap's collector (Table 4: PS, CMS or G1), and the
    /// only way a run's collector is chosen.
    pub gc_algorithm: GcAlgorithm,
    /// Deca page size (§4.3.1 trade-off; ablation bench sweeps it).
    pub page_size: usize,
    /// Directory for spill/swap files.
    pub spill_dir: PathBuf,
    /// Driver fault-handling policy for sessions built from this config.
    pub retry: RetryPolicy,
    /// How the driver hands tasks to executors (`Pull` by default;
    /// `Wave` pins every task to its home slot, which the benchmark's
    /// `lr-gcbound` workload needs).
    pub scheduler: SchedulerMode,
    /// Record the structured run trace (`crate::trace`). On by default —
    /// overhead is a bounded number of vector pushes per task — and
    /// turned off by the benchmark's `engine.trace.overhead_pct` control
    /// run.
    pub tracing: bool,
}

impl ExecutorConfig {
    pub fn new(mode: ExecutionMode, heap_bytes: usize) -> ExecutorConfig {
        ExecutorConfig {
            mode,
            heap_bytes,
            storage_fraction: 0.6,
            gc_algorithm: GcAlgorithm::ParallelScavenge,
            page_size: 64 << 10,
            spill_dir: ExecutorConfig::default_spill_dir(),
            retry: RetryPolicy::default(),
            scheduler: SchedulerMode::Pull,
            tracing: true,
        }
    }

    /// The default spill directory: unique per process *and* thread, so
    /// concurrently running tests never share spill state. Tests that use
    /// the default can compute the same path to clean it up afterwards.
    pub fn default_spill_dir() -> PathBuf {
        std::env::temp_dir().join(format!(
            "deca-exec-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    pub fn storage_fraction(mut self, f: f64) -> Self {
        self.storage_fraction = f;
        self
    }

    pub fn gc_algorithm(mut self, a: GcAlgorithm) -> Self {
        self.gc_algorithm = a;
        self
    }

    pub fn page_size(mut self, s: usize) -> Self {
        self.page_size = s;
        self
    }

    pub fn spill_dir(mut self, d: PathBuf) -> Self {
        self.spill_dir = d;
        self
    }

    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    pub fn scheduler(mut self, mode: SchedulerMode) -> Self {
        self.scheduler = mode;
        self
    }

    pub fn tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Cache budget in bytes. Clamped below the old generation's capacity
    /// (heap × 2/3 under the default NewRatio), mirroring Spark's safety
    /// fraction: the configured storage fraction can exceed what the
    /// tenured generation can actually hold, and the block manager must
    /// never pin more than fits.
    pub fn storage_budget(&self) -> usize {
        let configured = (self.heap_bytes as f64 * self.storage_fraction) as usize;
        let old_gen = self.heap_bytes - self.heap_bytes / 3;
        configured.min((old_gen as f64 * 0.95) as usize)
    }
}

/// Configuration of the multi-job submission service
/// ([`crate::server::DecaServer`]): how many shared executors it owns, how
/// many jobs it runs concurrently. A tenant runs any number of jobs at once
/// until `DecaServer::configure_tenant` caps it.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Shared physical executors (one worker thread each).
    pub executors: usize,
    /// Job-runner threads — the ceiling on jobs *executing* concurrently
    /// (queued jobs wait for a free runner). `0` means "same as
    /// `executors`".
    pub runners: usize,
    /// Configuration applied to every shared executor (mode, heap, retry
    /// policy, scheduler, tracing).
    pub executor: ExecutorConfig,
}

impl ServerConfig {
    pub fn new(executors: usize, executor: ExecutorConfig) -> ServerConfig {
        ServerConfig { executors, runners: 0, executor }
    }

    pub fn runners(mut self, n: usize) -> ServerConfig {
        self.runners = n;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_constructs_configs() {
        let c = ExecutorConfig::new(ExecutionMode::Deca, 48 << 20)
            .gc_algorithm(GcAlgorithm::Cms)
            .storage_fraction(0.5)
            .page_size(128 << 10);
        assert_eq!(c.mode, ExecutionMode::Deca);
        assert_eq!(c.heap_bytes, 48 << 20);
        assert_eq!(c.gc_algorithm, GcAlgorithm::Cms);
        assert_eq!(c.page_size, 128 << 10);
        // Unset knobs keep Table 4's defaults.
        let plain = ExecutorConfig::new(ExecutionMode::Deca, 48 << 20);
        assert_eq!(plain.storage_fraction, 0.6);
        assert_eq!(plain.page_size, 64 << 10);
        assert_eq!(plain.gc_algorithm, GcAlgorithm::ParallelScavenge);
        assert_eq!(plain.gc_algorithm(GcAlgorithm::G1).gc_algorithm, GcAlgorithm::G1);
    }

    #[test]
    fn builder_and_budget() {
        let c = ExecutorConfig::new(ExecutionMode::Deca, 100 << 20)
            .storage_fraction(0.4)
            .page_size(1 << 20);
        assert_eq!(c.storage_budget(), 40 << 20);
        assert_eq!(c.page_size, 1 << 20);
        assert_eq!(c.mode.name(), "Deca");
    }

    #[test]
    fn retry_policy_defaults_and_presets() {
        let d = RetryPolicy::default();
        assert_eq!(d.max_attempts, 1, "default keeps fail-fast task semantics");
        assert!(d.spare_last_executor);
        let r = RetryPolicy::resilient().quarantine_after(3).spare_last_executor(false);
        assert_eq!(r.max_attempts, 4);
        assert_eq!(r.quarantine_after, 3);
        assert!(!r.spare_last_executor);
        // Degenerate knobs clamp to sane minima.
        assert_eq!(RetryPolicy::default().max_attempts(0).max_attempts, 1);
        assert_eq!(RetryPolicy::default().quarantine_after(0).quarantine_after, 1);
        // The setter threads the policy through to the config.
        let c = ExecutorConfig::new(ExecutionMode::Spark, 1 << 20).retry(RetryPolicy::resilient());
        assert_eq!(c.retry.max_attempts, 4);
        // Watchdog knobs: off by default, with a survivable hang budget.
        assert_eq!(d.task_deadline, None);
        assert!(!d.speculate);
        assert_eq!(d.deadline_budget(), Duration::from_millis(100));
        let w = RetryPolicy::resilient().task_deadline(Duration::from_millis(25)).speculate(true);
        assert_eq!(w.task_deadline, Some(Duration::from_millis(25)));
        assert_eq!(w.deadline_budget(), Duration::from_millis(25));
        assert!(w.speculate);
    }

    #[test]
    fn tracing_defaults_on_and_is_switchable() {
        assert!(ExecutorConfig::new(ExecutionMode::Spark, 1 << 20).tracing);
        assert!(!ExecutorConfig::new(ExecutionMode::Spark, 1 << 20).tracing(false).tracing);
    }

    #[test]
    fn scheduler_defaults_to_pull_and_is_switchable() {
        // The default is a constant: the engine reads no environment.
        assert_eq!(
            ExecutorConfig::new(ExecutionMode::Spark, 1 << 20).scheduler,
            SchedulerMode::Pull
        );
        let c = ExecutorConfig::new(ExecutionMode::Spark, 1 << 20).scheduler(SchedulerMode::Wave);
        assert_eq!(c.scheduler, SchedulerMode::Wave);
        assert_eq!(SchedulerMode::Wave.to_string(), "wave");
        assert_eq!(SchedulerMode::Pull.to_string(), "pull");
    }

    #[test]
    fn mode_names() {
        assert_eq!(ExecutionMode::Spark.to_string(), "Spark");
        assert_eq!(ExecutionMode::SparkSer.to_string(), "SparkSer");
        assert_eq!(ExecutionMode::ALL.len(), 3);
    }
}
