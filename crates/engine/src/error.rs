//! The unified engine error type.
//!
//! Every fallible engine-facing operation — session caching, cluster
//! stages, shuffle exchange, spill I/O — returns [`EngineError`], so apps
//! and harnesses handle one type instead of the per-layer errors
//! (`CacheError`, `OomError`, `MemError`) the lower crates raise.
//!
//! Errors carry a **transient/fatal classification**
//! ([`EngineError::is_transient`]): transient failures are the ones the
//! driver's retry machinery may absorb (memory pressure, a lost executor,
//! a corrupt shuffle frame, an injected fault — all of which a
//! deterministic, restartable task model recovers from by re-running),
//! while fatal ones (broken spill I/O, page-manager invariant violations)
//! abort the job immediately.

use deca_core::MemError;
use deca_heap::OomError;

use crate::cache::CacheError;
use crate::faults::FaultSite;

/// Any error an engine session can raise.
#[derive(Debug)]
pub enum EngineError {
    /// Cache manager failure (block put/get/evict).
    Cache(CacheError),
    /// Simulated-heap allocation failure.
    Oom(OomError),
    /// Deca memory-manager failure (page budgeting, swap).
    Mem(MemError),
    /// Spill / swap file I/O failure.
    Io(std::io::Error),
    /// Malformed shuffle data or a mis-sized exchange (e.g. a map task
    /// produced outputs for the wrong number of reducers).
    Shuffle(String),
    /// The executor hosting the task crashed (or was already poisoned by a
    /// crash earlier in the wave). The task itself did no wrong: it can be
    /// re-run on any healthy executor.
    ExecutorLost { executor: usize },
    /// No healthy executor remains in the cluster: `quarantined` of
    /// `executors` are out of service, so the stage cannot schedule at
    /// all. This is a cluster-state failure — no single executor (and no
    /// task) is at fault.
    AllExecutorsLost { executors: usize, quarantined: usize },
    /// A deterministic fault-plan injection fired at the given site.
    Injected { site: FaultSite },
    /// The watchdog failed an attempt that exceeded its per-task deadline
    /// (`RetryPolicy::task_deadline`). Transient: a hang is indistinguishable
    /// from a slow or wedged host, and re-running the deterministic task on
    /// another executor can succeed.
    Deadline { stage: String, task: usize, attempt: u32, budget: std::time::Duration },
    /// The job was cancelled cooperatively — by `JobHandle::cancel()` or
    /// by its `JobSpec::deadline` expiring. Fatal by design: cancellation
    /// is a caller decision, not a recoverable task failure.
    Cancelled { reason: String },
    /// The job service refused a submission: the tenant already has its
    /// maximum number of jobs queued or running.
    AdmissionRejected { tenant: String, in_flight: usize, limit: usize },
    /// The job service is shutting down (or has shut down) and no longer
    /// accepts or runs jobs.
    ServerShutdown,
    /// A task body panicked. The stage engine catches the panic per
    /// attempt — standalone or served — so one bad task cannot wedge an
    /// executor thread other work shares; deterministic, hence fatal.
    TaskPanic { stage: String, task: usize, message: String },
    /// A task failed; carries the stage and task index for diagnosis.
    Task { stage: String, task: usize, source: Box<EngineError> },
}

impl EngineError {
    /// Wrap an error with the stage/task it occurred in.
    pub fn in_task(self, stage: &str, task: usize) -> EngineError {
        match self {
            // Don't re-wrap: keep the innermost task attribution.
            e @ EngineError::Task { .. } => e,
            e => EngineError::Task { stage: stage.to_string(), task, source: Box::new(e) },
        }
    }

    /// Is this failure retryable? Transient errors are the ones re-running
    /// the (deterministic) task can fix: memory pressure, executor loss,
    /// shuffle corruption, injected faults. Fatal errors — spill I/O,
    /// non-OOM cache failures — abort the job. `Task` wrappers classify by
    /// their innermost cause.
    pub fn is_transient(&self) -> bool {
        match self {
            // A full heap, or a Deca page budget the heap could not grant.
            EngineError::Oom(_) | EngineError::Mem(MemError::Oom(_)) => true,
            EngineError::Cache(CacheError::Oom(_) | CacheError::Mem(MemError::Oom(_))) => true,
            EngineError::ExecutorLost { .. } => true,
            EngineError::AllExecutorsLost { .. } => true,
            EngineError::Injected { .. } => true,
            EngineError::Deadline { .. } => true,
            EngineError::Shuffle(_) => true,
            // A spill-path kill point models the executor dying mid-spill;
            // the driver restarts the executor and re-runs the task.
            EngineError::Cache(CacheError::Injected(_)) => true,
            EngineError::Cache(_) => false,
            EngineError::Mem(_) | EngineError::Io(_) => false,
            // Admission and shutdown are caller-facing refusals, and a
            // panicking task is deterministic — re-running cannot help.
            EngineError::AdmissionRejected { .. } => false,
            EngineError::ServerShutdown => false,
            EngineError::TaskPanic { .. } => false,
            EngineError::Cancelled { .. } => false,
            EngineError::Task { source, .. } => source.is_transient(),
        }
    }

    /// If this failure is an injected *kill-point* fault — one of the
    /// spill-path sites whose semantics are "the executor process died
    /// here" — return the site, so the driver can poison the executor
    /// and route recovery through restart-in-place instead of a plain
    /// task retry. Walks `Task` wrappers to the innermost cause.
    pub fn injected_kill(&self) -> Option<FaultSite> {
        match self {
            EngineError::Cache(CacheError::Injected(site)) if site.kills_executor() => Some(*site),
            EngineError::Injected { site } if site.kills_executor() => Some(*site),
            EngineError::Task { source, .. } => source.injected_kill(),
            _ => None,
        }
    }

    /// Is this failure specifically memory pressure (a heap OOM or a Deca
    /// page budget the heap could not grant, raised directly or inside the
    /// cache manager, or an injected allocation fault)? These get the
    /// graceful-degradation treatment: spill the executor's cache to disk
    /// and retry in place rather than migrating the task.
    pub fn is_memory_pressure(&self) -> bool {
        match self {
            EngineError::Oom(_) | EngineError::Mem(MemError::Oom(_)) => true,
            EngineError::Cache(CacheError::Oom(_) | CacheError::Mem(MemError::Oom(_))) => true,
            EngineError::Injected { site } => *site == FaultSite::Alloc,
            EngineError::Task { source, .. } => source.is_memory_pressure(),
            _ => false,
        }
    }
}

impl From<CacheError> for EngineError {
    fn from(e: CacheError) -> Self {
        // Flatten: CacheError already wraps Oom/Mem/Io; keep the cache
        // context only for genuinely cache-level failures.
        EngineError::Cache(e)
    }
}

impl From<OomError> for EngineError {
    fn from(e: OomError) -> Self {
        EngineError::Oom(e)
    }
}

impl From<MemError> for EngineError {
    fn from(e: MemError) -> Self {
        EngineError::Mem(e)
    }
}

impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> Self {
        EngineError::Io(e)
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Cache(e) => write!(f, "engine: {e}"),
            EngineError::Oom(e) => write!(f, "engine: {e}"),
            EngineError::Mem(e) => write!(f, "engine: {e}"),
            EngineError::Io(e) => write!(f, "engine I/O: {e}"),
            EngineError::Shuffle(msg) => write!(f, "engine shuffle: {msg}"),
            EngineError::ExecutorLost { executor } => {
                write!(f, "executor {executor} lost (crashed or poisoned)")
            }
            EngineError::AllExecutorsLost { executors, quarantined } => {
                write!(f, "no healthy executors: {quarantined} of {executors} quarantined")
            }
            EngineError::Injected { site } => write!(f, "injected {site} fault"),
            EngineError::Deadline { stage, task, attempt, budget } => {
                write!(
                    f,
                    "stage {stage:?} task {task} attempt {attempt} exceeded its {budget:?} deadline"
                )
            }
            EngineError::Cancelled { reason } => write!(f, "job cancelled: {reason}"),
            EngineError::AdmissionRejected { tenant, in_flight, limit } => {
                write!(f, "tenant {tenant:?} rejected: {in_flight} jobs in flight (limit {limit})")
            }
            EngineError::ServerShutdown => write!(f, "job service shut down"),
            EngineError::TaskPanic { stage, task, message } => {
                write!(f, "stage {stage:?} task {task} panicked: {message}")
            }
            EngineError::Task { stage, task, source } => {
                write!(f, "stage {stage:?} task {task}: {source}")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Cache(e) => Some(e),
            EngineError::Oom(e) => Some(e),
            EngineError::Mem(e) => Some(e),
            EngineError::Io(e) => Some(e),
            EngineError::Shuffle(_) => None,
            EngineError::ExecutorLost { .. } => None,
            EngineError::AllExecutorsLost { .. } => None,
            EngineError::Injected { .. } => None,
            EngineError::Deadline { .. } => None,
            EngineError::Cancelled { .. } => None,
            EngineError::AdmissionRejected { .. } => None,
            EngineError::ServerShutdown => None,
            EngineError::TaskPanic { .. } => None,
            EngineError::Task { source, .. } => Some(source.as_ref()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn display_and_source_chain() {
        let oom = OomError { requested: 64 };
        let e = EngineError::from(oom).in_task("wc-map", 3);
        let msg = e.to_string();
        assert!(msg.contains("wc-map"), "{msg}");
        assert!(msg.contains("task 3"), "{msg}");
        assert!(e.source().is_some());
        // Re-wrapping keeps the innermost attribution.
        let e2 = e.in_task("outer", 0);
        assert!(e2.to_string().contains("wc-map"));
    }

    #[test]
    fn conversions_flatten_layers() {
        let io = std::io::Error::new(std::io::ErrorKind::Other, "disk gone");
        assert!(matches!(EngineError::from(io), EngineError::Io(_)));
        let ce = CacheError::Io(std::io::Error::new(std::io::ErrorKind::Other, "x"));
        assert!(matches!(EngineError::from(ce), EngineError::Cache(_)));
        let me = EngineError::Shuffle("bad frame".into());
        assert_eq!(me.to_string(), "engine shuffle: bad frame");
    }

    #[test]
    fn display_covers_fault_variants() {
        let lost = EngineError::ExecutorLost { executor: 2 };
        assert_eq!(lost.to_string(), "executor 2 lost (crashed or poisoned)");
        assert!(lost.source().is_none());
        let injected = EngineError::Injected { site: FaultSite::ShuffleFrame };
        assert_eq!(injected.to_string(), "injected shuffle-frame fault");
        assert!(injected.source().is_none());
        let all = EngineError::AllExecutorsLost { executors: 4, quarantined: 4 };
        assert_eq!(all.to_string(), "no healthy executors: 4 of 4 quarantined");
        assert!(all.source().is_none());
        assert!(all.is_transient(), "a replaced cluster could re-run the job");
        assert!(!all.is_memory_pressure());
        // Task attribution renders around the fault cause.
        let wrapped = EngineError::Injected { site: FaultSite::TaskBody }.in_task("pr-map", 1);
        let msg = wrapped.to_string();
        assert!(msg.contains("pr-map") && msg.contains("injected task-body fault"), "{msg}");
    }

    #[test]
    fn transient_classification() {
        // Transient: retrying the deterministic task can succeed.
        assert!(EngineError::Oom(OomError { requested: 1 }).is_transient());
        assert!(EngineError::ExecutorLost { executor: 0 }.is_transient());
        assert!(EngineError::Injected { site: FaultSite::TaskBody }.is_transient());
        assert!(EngineError::Shuffle("corrupt frame".into()).is_transient());
        assert!(EngineError::Cache(CacheError::Oom(OomError { requested: 8 })).is_transient());
        // Fatal: the environment is broken, not the attempt.
        assert!(
            !EngineError::Io(std::io::Error::new(std::io::ErrorKind::Other, "x")).is_transient()
        );
        let cache_io = CacheError::Io(std::io::Error::new(std::io::ErrorKind::Other, "x"));
        assert!(!EngineError::Cache(cache_io).is_transient());
        // Task wrappers delegate to the innermost cause.
        let wrapped = EngineError::Oom(OomError { requested: 1 }).in_task("s", 0);
        assert!(wrapped.is_transient() && wrapped.is_memory_pressure());
        let fatal =
            EngineError::Io(std::io::Error::new(std::io::ErrorKind::Other, "x")).in_task("s", 0);
        assert!(!fatal.is_transient());
    }

    #[test]
    fn injected_kill_detection() {
        // A spill-path kill point is transient (restart + re-run fixes it)
        // and reports the site through Task wrappers.
        let kill = EngineError::Cache(CacheError::Injected(FaultSite::SpillWrite));
        assert!(kill.is_transient());
        assert!(!kill.is_memory_pressure());
        assert_eq!(kill.injected_kill(), Some(FaultSite::SpillWrite));
        let wrapped =
            EngineError::Cache(CacheError::Injected(FaultSite::ManifestCommit)).in_task("s", 2);
        assert_eq!(wrapped.injected_kill(), Some(FaultSite::ManifestCommit));
        // Non-kill injections (task-body, alloc, …) are not kills.
        assert_eq!(EngineError::Injected { site: FaultSite::TaskBody }.injected_kill(), None);
        assert_eq!(EngineError::Oom(OomError { requested: 1 }).injected_kill(), None);
    }

    #[test]
    fn server_variants_are_fatal() {
        let rejected =
            EngineError::AdmissionRejected { tenant: "acme".into(), in_flight: 3, limit: 3 };
        assert!(!rejected.is_transient());
        assert!(rejected.to_string().contains("acme") && rejected.to_string().contains("limit 3"));
        assert!(rejected.source().is_none());
        assert!(!EngineError::ServerShutdown.is_transient());
        let panic =
            EngineError::TaskPanic { stage: "wc-map".into(), task: 2, message: "boom".into() };
        assert!(!panic.is_transient() && !panic.is_memory_pressure());
        assert_eq!(panic.injected_kill(), None);
        assert!(panic.to_string().contains("boom"));
    }

    #[test]
    fn watchdog_variants_classify_correctly() {
        // A deadline overrun is transient: the watchdog retries the
        // deterministic task elsewhere, exactly like a lost executor.
        let late = EngineError::Deadline {
            stage: "wc-map".into(),
            task: 3,
            attempt: 1,
            budget: std::time::Duration::from_millis(100),
        };
        assert!(late.is_transient());
        assert!(!late.is_memory_pressure());
        assert_eq!(late.injected_kill(), None);
        assert!(late.source().is_none());
        let msg = late.to_string();
        assert!(msg.contains("wc-map") && msg.contains("task 3") && msg.contains("100ms"), "{msg}");
        // Wrapping keeps the classification.
        assert!(late.in_task("wc-map", 3).is_transient());
        // Cancellation is a caller decision — fatal, never retried.
        let gone = EngineError::Cancelled { reason: "deadline 5ms exceeded".into() };
        assert!(!gone.is_transient());
        assert!(!gone.is_memory_pressure());
        assert_eq!(gone.injected_kill(), None);
        assert!(gone.source().is_none());
        assert!(gone.to_string().contains("deadline 5ms exceeded"));
    }

    #[test]
    fn memory_pressure_classification() {
        assert!(EngineError::Oom(OomError { requested: 1 }).is_memory_pressure());
        assert!(EngineError::Injected { site: FaultSite::Alloc }.is_memory_pressure());
        assert!(!EngineError::Injected { site: FaultSite::TaskBody }.is_memory_pressure());
        assert!(!EngineError::ExecutorLost { executor: 0 }.is_memory_pressure());
        assert!(!EngineError::Shuffle("x".into()).is_memory_pressure());
    }

    /// A Deca page budget the heap cannot grant is a full heap like any
    /// other: the stage engine spills and re-runs on it, directly or from
    /// inside the cache manager. Spill I/O stays fatal.
    #[test]
    fn a_page_budget_oom_is_memory_pressure_and_spill_io_is_not() {
        let page_oom = || MemError::Oom(OomError { requested: 65536 });
        let io = || MemError::Io(std::io::Error::other("disk gone"));
        for e in [EngineError::Mem(page_oom()), EngineError::Cache(CacheError::Mem(page_oom()))] {
            assert!(e.is_memory_pressure() && e.is_transient(), "{e}");
            let wrapped = e.in_task("adj-build", 1);
            assert!(wrapped.is_memory_pressure() && wrapped.is_transient(), "{wrapped}");
        }
        for e in [EngineError::Mem(io()), EngineError::Cache(CacheError::Mem(io()))] {
            assert!(!e.is_memory_pressure() && !e.is_transient(), "{e}");
        }
    }
}
