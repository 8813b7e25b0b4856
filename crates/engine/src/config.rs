//! Executor configuration: heap sizing, memory fractions, execution mode.
//!
//! The knobs mirror the settings the paper's experiments vary: executor
//! heap size (§6, 20–30 GB there, MB-scale here), the storage/shuffle
//! memory fractions of Table 4, and the collector algorithm.

use std::path::PathBuf;
use std::time::Duration;

use deca_heap::GcAlgorithm;

/// Driver-side fault-handling knobs: how many times a task may run, when a
/// misbehaving executor is quarantined, and whether memory pressure is
/// degraded through (spill + retry) instead of aborting the job.
///
/// The default policy preserves the pre-fault-tolerance behaviour for task
/// errors — one attempt, first failure aborts — while keeping the graceful
/// OOM path on (a heap OOM triggers a cache spill and one in-place retry,
/// which is what the paper's substrate does rather than dying under
/// memory pressure).
#[derive(Copy, Clone, Debug)]
pub struct RetryPolicy {
    /// Maximum times one task may run (attempts, not retries): 1 means no
    /// retries, Spark's default of 4 means up to 3 re-runs.
    pub max_attempts: u32,
    /// Simulated scheduling delay per re-run, accounted into stage
    /// recovery time (never a wall-clock sleep).
    pub backoff: Duration,
    /// Quarantine an executor after this many task failures within one
    /// stage (Spark's per-stage blacklisting threshold).
    pub quarantine_after: u32,
    /// Never quarantine the last healthy executor: restart it in place
    /// instead (the cluster-manager-replaces-the-node story). Turning this
    /// off makes crash-heavy plans unsurvivable on purpose.
    pub spare_last_executor: bool,
    /// Degrade memory pressure gracefully: on an OOM-classified task
    /// failure, spill the executor's cache to disk and retry once in
    /// place, instead of propagating the OOM.
    pub spill_on_oom: bool,
    /// On restart-in-place, treat the crash as wiping the cache's
    /// volatile (hot/warm) tiers and rehydrate cold blocks from the
    /// crash-consistent spill manifest, so verified on-disk page groups
    /// skip their lineage recompute. Turning this off restores the legacy
    /// hung-JVM model (all cache state survives the restart untouched).
    pub rehydrate: bool,
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
            backoff: Duration::from_millis(10),
            quarantine_after: 2,
            spare_last_executor: true,
            spill_on_oom: true,
            rehydrate: true,
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

    pub fn backoff(mut self, d: Duration) -> Self {
        self.backoff = d;
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

    pub fn spill_on_oom(mut self, spill: bool) -> Self {
        self.spill_on_oom = spill;
        self
    }

    pub fn rehydrate(mut self, on: bool) -> Self {
        self.rehydrate = on;
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

    /// The process-wide default: `Pull`, unless the `DECA_SCHEDULER`
    /// environment variable says `wave` — the knob `scripts/ci.sh` uses
    /// to replay the fault-seed suite under both schedulers without
    /// touching test code.
    pub fn from_env() -> SchedulerMode {
        match std::env::var("DECA_SCHEDULER") {
            Ok(v) if v.eq_ignore_ascii_case("wave") => SchedulerMode::Wave,
            _ => SchedulerMode::Pull,
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

/// Configuration of one executor.
#[derive(Clone, Debug)]
pub struct ExecutorConfig {
    pub mode: ExecutionMode,
    /// Total simulated heap bytes (young + old).
    pub heap_bytes: usize,
    /// Fraction of the heap the cache manager may fill before evicting
    /// (Spark's `storage.memoryFraction`; Table 4 sweeps it).
    pub storage_fraction: f64,
    /// Fraction reserved for shuffle buffers (Table 4).
    pub shuffle_fraction: f64,
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
    /// `lr-gcbound` workload needs). `DECA_SCHEDULER=wave` flips the
    /// default process-wide.
    pub scheduler: SchedulerMode,
    /// Record the structured run trace (`crate::trace`). On by default —
    /// overhead is a bounded number of vector pushes per task — and
    /// turned off by the benchmark's `engine.trace.overhead_pct` control
    /// run.
    pub tracing: bool,
}

impl ExecutorConfig {
    pub fn new(mode: ExecutionMode, heap_bytes: usize) -> ExecutorConfig {
        ExecutorConfig::builder().mode(mode).heap_bytes(heap_bytes).build()
    }

    /// Start a builder with the default knobs (Spark mode, 16 MB heap,
    /// Table 4's default fractions).
    pub fn builder() -> ExecutorConfigBuilder {
        ExecutorConfigBuilder {
            config: ExecutorConfig {
                mode: ExecutionMode::Spark,
                heap_bytes: 16 << 20,
                storage_fraction: 0.6,
                shuffle_fraction: 0.2,
                gc_algorithm: GcAlgorithm::ParallelScavenge,
                page_size: 64 << 10,
                spill_dir: ExecutorConfig::default_spill_dir(),
                retry: RetryPolicy::default(),
                scheduler: SchedulerMode::from_env(),
                tracing: true,
            },
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

    pub fn shuffle_fraction(mut self, f: f64) -> Self {
        self.shuffle_fraction = f;
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

/// Builder for [`ExecutorConfig`]. All knobs default to the values
/// `ExecutorConfig::new` has always used, so a builder chain only names
/// what it changes.
#[derive(Clone, Debug)]
pub struct ExecutorConfigBuilder {
    config: ExecutorConfig,
}

impl ExecutorConfigBuilder {
    pub fn mode(mut self, mode: ExecutionMode) -> Self {
        self.config.mode = mode;
        self
    }

    pub fn heap_bytes(mut self, bytes: usize) -> Self {
        self.config.heap_bytes = bytes;
        self
    }

    /// Heap size in mebibytes (the unit the paper's tables use).
    pub fn heap_mb(mut self, mb: usize) -> Self {
        self.config.heap_bytes = mb << 20;
        self
    }

    pub fn gc(mut self, algorithm: GcAlgorithm) -> Self {
        self.config.gc_algorithm = algorithm;
        self
    }

    pub fn storage_fraction(mut self, f: f64) -> Self {
        self.config.storage_fraction = f;
        self
    }

    pub fn shuffle_fraction(mut self, f: f64) -> Self {
        self.config.shuffle_fraction = f;
        self
    }

    pub fn page_size(mut self, s: usize) -> Self {
        self.config.page_size = s;
        self
    }

    pub fn spill_dir(mut self, d: PathBuf) -> Self {
        self.config.spill_dir = d;
        self
    }

    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.config.retry = policy;
        self
    }

    pub fn scheduler(mut self, mode: SchedulerMode) -> Self {
        self.config.scheduler = mode;
        self
    }

    pub fn tracing(mut self, on: bool) -> Self {
        self.config.tracing = on;
        self
    }

    pub fn build(self) -> ExecutorConfig {
        self.config
    }
}

/// Configuration of the multi-job submission service
/// ([`crate::server::DecaServer`]): how many shared executors it owns, how
/// many jobs it runs concurrently, and the default admission cap applied
/// to tenants never configured explicitly.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Shared physical executors (one worker thread each).
    pub executors: usize,
    /// Job-runner threads — the ceiling on jobs *executing* concurrently
    /// (queued jobs wait for a free runner). `0` means "same as
    /// `executors`".
    pub runners: usize,
    /// Per-tenant in-flight job cap applied to tenants first seen at
    /// `submit` time; `DecaServer::configure_tenant` overrides per tenant.
    pub default_max_in_flight: usize,
    /// Configuration applied to every shared executor (mode, heap, retry
    /// policy, scheduler, tracing).
    pub executor: ExecutorConfig,
}

impl ServerConfig {
    pub fn new(executors: usize, executor: ExecutorConfig) -> ServerConfig {
        ServerConfig { executors, runners: 0, default_max_in_flight: usize::MAX, executor }
    }

    pub fn runners(mut self, n: usize) -> ServerConfig {
        self.runners = n;
        self
    }

    pub fn default_max_in_flight(mut self, n: usize) -> ServerConfig {
        self.default_max_in_flight = n.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_constructs_configs() {
        let c = ExecutorConfig::builder()
            .mode(ExecutionMode::Deca)
            .heap_mb(48)
            .gc(GcAlgorithm::Cms)
            .storage_fraction(0.5)
            .page_size(128 << 10)
            .build();
        assert_eq!(c.mode, ExecutionMode::Deca);
        assert_eq!(c.heap_bytes, 48 << 20);
        assert_eq!(c.gc_algorithm, GcAlgorithm::Cms);
        assert_eq!(c.page_size, 128 << 10);
        // The legacy constructor is a thin wrapper over the builder.
        let legacy = ExecutorConfig::new(ExecutionMode::Deca, 48 << 20);
        assert_eq!(legacy.storage_fraction, 0.6);
        assert_eq!(legacy.page_size, 64 << 10);
        assert_eq!(legacy.gc_algorithm, GcAlgorithm::ParallelScavenge);
        assert_eq!(legacy.gc_algorithm(GcAlgorithm::G1).gc_algorithm, GcAlgorithm::G1);
    }

    #[test]
    fn builder_and_budget() {
        let c = ExecutorConfig::new(ExecutionMode::Deca, 100 << 20)
            .storage_fraction(0.4)
            .shuffle_fraction(0.3)
            .page_size(1 << 20);
        assert_eq!(c.storage_budget(), 40 << 20);
        assert_eq!(c.page_size, 1 << 20);
        assert_eq!(c.mode.name(), "Deca");
    }

    #[test]
    fn retry_policy_defaults_and_presets() {
        let d = RetryPolicy::default();
        assert_eq!(d.max_attempts, 1, "default keeps fail-fast task semantics");
        assert!(d.spill_on_oom, "graceful OOM degradation is on by default");
        assert!(d.spare_last_executor);
        let r = RetryPolicy::resilient().quarantine_after(3).spare_last_executor(false);
        assert_eq!(r.max_attempts, 4);
        assert_eq!(r.quarantine_after, 3);
        assert!(!r.spare_last_executor);
        // Degenerate knobs clamp to sane minima.
        assert_eq!(RetryPolicy::default().max_attempts(0).max_attempts, 1);
        assert_eq!(RetryPolicy::default().quarantine_after(0).quarantine_after, 1);
        // The builder threads the policy through to the config.
        let c = ExecutorConfig::builder().retry(RetryPolicy::resilient()).build();
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
        assert!(!ExecutorConfig::builder().tracing(false).build().tracing);
        assert!(!ExecutorConfig::new(ExecutionMode::Spark, 1 << 20).tracing(false).tracing);
    }

    #[test]
    fn scheduler_defaults_to_pull_and_is_switchable() {
        // The builder default comes from `SchedulerMode::from_env()`;
        // the test environment does not set DECA_SCHEDULER, so it must
        // resolve to Pull. (Setting the variable from inside a test
        // would race with parallel tests, so the env branch is covered
        // by scripts/ci.sh's wave/pull replay legs instead.)
        assert_eq!(ExecutorConfig::builder().build().scheduler, SchedulerMode::Pull);
        let c = ExecutorConfig::builder().scheduler(SchedulerMode::Wave).build();
        assert_eq!(c.scheduler, SchedulerMode::Wave);
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
