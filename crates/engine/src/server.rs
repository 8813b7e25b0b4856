//! The multi-job submission service: one shared worker pool (and its
//! executors' tiered caches) multiplexing N concurrent jobs behind a
//! `submit(JobSpec) -> JobHandle` API.
//!
//! ## Why a server
//!
//! The paper's deployment target is a long-lived cluster service (§6.1
//! runs Deca inside Spark's executor processes, which serve many jobs over
//! their lifetime), while this repo historically grew one
//! `run`/`run_cluster`/`run_cluster_faulty`/`run_text_cluster` entry point
//! per app — each spinning up and tearing down a private cluster.
//! [`DecaServer`] replaces that sprawl: apps describe themselves once as
//! an [`AppJob`] (a body over the [`JobCtx`] stage API), and every
//! harness — single-shot CLI runs, the fault matrix, the concurrency
//! soak — submits the same description with a different [`JobSpec`].
//!
//! ## Execution model
//!
//! The server owns one worker pool (`pool.rs`), the same kind a
//! [`ClusterSession`] owns privately. `R` *runner* threads drain the
//! submission queue; each drives one job through the same stage engine
//! (`stage.rs`) a session runs, publishing its rounds to the shared pool,
//! whose workers share fairly across jobs. A server job differs from a
//! session only as the stage module's slot-source table lists: virtual
//! lanes, and a cancel handle with a deadline. It never speculates:
//! `run_job` clears `RetryPolicy::speculate`, so idle workers serve other
//! jobs instead.
//!
//! ## Virtual executors
//!
//! A job runs at a *width* `W` chosen in its [`JobSpec`] — its task→home
//! mapping, retry round-robin, and failure charging all use `W` virtual
//! executors, exactly as a standalone `ClusterSession::new(W, ..)` would.
//! Virtual executor `v` executes on physical worker `v % E`. Injected
//! faults poison the job's *virtual* executor (a per-job atomic flag),
//! never the shared process: one tenant's fault plan cannot take a
//! physical executor away from everyone else. Because app bodies are
//! deterministic in `(task, partition data)` and recompute executor-local
//! state from lineage when it is missing, a job's results are bit-identical
//! to its standalone run at the same width — the server soak asserts this
//! for hundreds of concurrent submissions.
//!
//! ## Tenancy
//!
//! Every job belongs to a tenant. Admission control caps each tenant's
//! in-flight jobs ([`DecaServer::configure_tenant`]), and
//! [`DecaServer::set_tenant_cache_budget`] gives a tenant a shared-cache
//! resident budget enforced by the cache's victim shielding: while a
//! tenant is at or under its budget, other tenants' memory pressure cannot
//! evict its blocks. Job-stamped cache entries are released when the job
//! finishes, so a long-lived server never accumulates dead jobs' state.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::config::{ExecutionMode, ExecutorConfig, RetryPolicy, SchedulerMode, ServerConfig};
use crate::driver::{ClusterSession, MapOutputs, ShufflePayload, TaskContext};
use crate::error::EngineError;
use crate::executor::Executor;
use crate::faults::FaultPlan;
use crate::metrics::{JobMetrics, StageMetrics};
use crate::pool::{spawn, Pool, PoolJob, Stop};
use crate::stage::{lock, panic_message, StageEngine};
use crate::trace::{RunTrace, TraceEvent};

// ----------------------------------------------------------------------
// AppJob / JobCtx: the unified app description
// ----------------------------------------------------------------------

/// What an app submits: a name and a body that drives stages through a
/// [`JobCtx`] and returns the job's checksum. The same description runs
/// on a [`DecaServer`] (via [`JobSpec::app`]) or standalone (via
/// [`JobCtx::local`] over a [`ClusterSession`] — the apps' `run_local`
/// shims).
#[derive(Clone)]
pub struct AppJob {
    name: String,
    body: Arc<dyn Fn(&mut JobCtx) -> Result<f64, EngineError> + Send + Sync>,
}

impl AppJob {
    pub fn new(
        name: impl Into<String>,
        body: impl Fn(&mut JobCtx) -> Result<f64, EngineError> + Send + Sync + 'static,
    ) -> AppJob {
        AppJob { name: name.into(), body: Arc::new(body) }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Run the job body against `ctx`, returning its checksum.
    pub fn run(&self, ctx: &mut JobCtx) -> Result<f64, EngineError> {
        (self.body)(ctx)
    }
}

impl std::fmt::Debug for AppJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppJob").field("name", &self.name).finish()
    }
}

/// The stage API an [`AppJob`] body runs against: the job's stage engine
/// over its view of a worker pool — a [`ClusterSession`]'s private pool
/// standalone, the shared pool on the server — with identical semantics
/// (same retry engine, same task→home mapping, same deterministic
/// results).
pub struct JobCtx<'a> {
    engine: &'a mut StageEngine,
    slots: &'a mut PoolJob,
    noted_cache_bytes: usize,
}

impl<'a> JobCtx<'a> {
    /// A context over a standalone session (the apps' `run_local` path).
    pub fn local(session: &'a mut ClusterSession) -> JobCtx<'a> {
        JobCtx { engine: &mut session.engine, slots: &mut session.job, noted_cache_bytes: 0 }
    }

    /// The job's executor width (virtual width on the server).
    pub fn executors(&self) -> usize {
        self.slots.lanes()
    }

    pub fn mode(&self) -> ExecutionMode {
        self.slots.mode()
    }

    /// Run one stage; see [`ClusterSession::run_stage`].
    pub fn run_stage<R: Send>(
        &mut self,
        name: &str,
        tasks: usize,
        f: impl Fn(&TaskContext, &mut Executor) -> Result<R, EngineError> + Sync,
    ) -> Result<Vec<R>, EngineError> {
        self.engine.run_stage(self.slots, name, tasks, f, false)
    }

    /// Run a map/exchange/reduce stage pair; see
    /// [`ClusterSession::run_shuffle_job`].
    pub fn run_shuffle_job<R: Send>(
        &mut self,
        name: &str,
        map_tasks: usize,
        reduce_tasks: usize,
        map: impl Fn(&TaskContext, &mut Executor) -> Result<MapOutputs, EngineError> + Sync,
        reduce: impl Fn(&TaskContext, &mut Executor, &[ShufflePayload]) -> Result<R, EngineError> + Sync,
    ) -> Result<Vec<R>, EngineError> {
        self.engine.run_shuffle_job(self.slots, name, map_tasks, reduce_tasks, map, reduce)
    }

    /// Snapshot the job's current cached footprint (resident + spilled)
    /// into [`JobCtx::noted_cache_bytes`]. Apps call this at the point
    /// their caches are fully built (e.g. after the adjacency-build
    /// stage), since end-of-job cleanup releases the blocks.
    pub fn note_cache_bytes(&mut self) {
        self.noted_cache_bytes = self.slots.cache_bytes().iter().sum();
    }

    /// The footprint recorded by the last [`JobCtx::note_cache_bytes`].
    pub fn noted_cache_bytes(&self) -> usize {
        self.noted_cache_bytes
    }
}

// ----------------------------------------------------------------------
// JobSpec / JobHandle / JobOutput: the submission API
// ----------------------------------------------------------------------

/// A job submission: which tenant it belongs to, what to run, and how —
/// executor width, retry policy, fault plan, scheduler. Unset knobs
/// default to the server's executor configuration.
///
/// ```
/// use deca_engine::{JobSpec, RetryPolicy, SchedulerMode};
/// let spec = JobSpec::new("analytics")
///     .executors(4)
///     .retry(RetryPolicy::resilient())
///     .scheduler(SchedulerMode::Pull);
/// ```
#[derive(Clone, Debug)]
pub struct JobSpec {
    tenant: String,
    executors: usize,
    retry: Option<RetryPolicy>,
    scheduler: Option<SchedulerMode>,
    faults: FaultPlan,
    deadline: Option<Duration>,
    app: Option<AppJob>,
}

impl JobSpec {
    pub fn new(tenant: impl Into<String>) -> JobSpec {
        JobSpec {
            tenant: tenant.into(),
            executors: 0,
            retry: None,
            scheduler: None,
            faults: FaultPlan::quiet(),
            deadline: None,
            app: None,
        }
    }

    /// The job's virtual executor width (task homes are `task % width`).
    /// Defaults to the server's physical executor count. May exceed it:
    /// virtual executors share physical workers round-robin.
    pub fn executors(mut self, n: usize) -> JobSpec {
        self.executors = n;
        self
    }

    /// The job's retry policy. `RetryPolicy::speculate` is cleared on the
    /// server: a job on the shared pool never launches a speculative
    /// duplicate (idle workers serve other jobs instead).
    pub fn retry(mut self, policy: RetryPolicy) -> JobSpec {
        self.retry = Some(policy);
        self
    }

    pub fn scheduler(mut self, mode: SchedulerMode) -> JobSpec {
        self.scheduler = Some(mode);
        self
    }

    /// Install a fault plan for this job. Faults poison the job's virtual
    /// executors only — they never damage the shared physical cluster or
    /// other tenants' jobs.
    pub fn faults(mut self, plan: FaultPlan) -> JobSpec {
        self.faults = plan;
        self
    }

    /// A wall-clock deadline measured from submission. A job past its
    /// deadline is cancelled cooperatively at its next stage or round
    /// boundary (and never starts at all if it is still queued), failing
    /// with [`EngineError::Cancelled`] and releasing its admission slot,
    /// claim-pool slots, and job-stamped cache entries.
    pub fn deadline(mut self, d: Duration) -> JobSpec {
        self.deadline = Some(d);
        self
    }

    pub fn app(mut self, app: AppJob) -> JobSpec {
        self.app = Some(app);
        self
    }
}

/// Everything a finished job hands back: checksum, per-job metric
/// roll-up (stamped with the job id), per-stage metrics, and the job's
/// own deterministic run trace.
#[derive(Clone, Debug)]
pub struct JobOutput {
    pub job: u64,
    pub checksum: f64,
    /// The cache footprint noted by the app via [`JobCtx::note_cache_bytes`]
    /// (resident + spilled cached bytes at the app's snapshot point).
    pub cache_bytes: usize,
    pub metrics: JobMetrics,
    pub stages: Vec<StageMetrics>,
    pub trace: RunTrace,
}

struct JobState {
    id: u64,
    tenant: String,
    /// The cooperative cancel flag, shared with the job's session and its
    /// published rounds so in-flight attempts can observe it.
    cancelled: Arc<AtomicBool>,
    /// Metrics and trace of a job that *failed* (cancelled, deadline,
    /// fatal error): the partial roll-up up to the failure point, so
    /// cancellation remains observable through [`JobHandle::metrics`] and
    /// [`JobHandle::trace`] even though [`JobHandle::wait`] reports an
    /// error.
    partial: Mutex<Option<JobOutput>>,
    result: Mutex<Option<Result<JobOutput, Arc<EngineError>>>>,
    cv: Condvar,
}

/// A submitted job. Cheap to clone; waitable from any thread.
#[derive(Clone)]
pub struct JobHandle {
    state: Arc<JobState>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.state.id)
            .field("tenant", &self.state.tenant)
            .finish()
    }
}

impl JobHandle {
    /// The server-assigned job id (1-based; 0 means "standalone session"
    /// everywhere job ids appear in metrics and traces).
    pub fn id(&self) -> u64 {
        self.state.id
    }

    pub fn tenant(&self) -> &str {
        &self.state.tenant
    }

    /// Block until the job finishes.
    pub fn wait(&self) -> Result<JobOutput, Arc<EngineError>> {
        let mut slot = lock(&self.state.result);
        loop {
            if let Some(r) = slot.as_ref() {
                return r.clone();
            }
            slot = self.state.cv.wait(slot).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// The result if the job has finished, without blocking.
    fn try_result(&self) -> Option<Result<JobOutput, Arc<EngineError>>> {
        lock(&self.state.result).clone()
    }

    /// The job's metric roll-up: the full roll-up of a finished job, or
    /// the partial roll-up of a failed/cancelled one. `None` while the
    /// job is still queued or running.
    pub fn metrics(&self) -> Option<JobMetrics> {
        match self.try_result()? {
            Ok(o) => Some(o.metrics),
            Err(_) => lock(&self.state.partial).as_ref().map(|o| o.metrics.clone()),
        }
    }

    /// The job's run trace: the full trace of a finished job, or the
    /// partial trace of a failed/cancelled one. `None` while the job is
    /// still queued or running.
    pub fn trace(&self) -> Option<RunTrace> {
        match self.try_result()? {
            Ok(o) => Some(o.trace),
            Err(_) => lock(&self.state.partial).as_ref().map(|o| o.trace.clone()),
        }
    }

    /// Request cooperative cancellation. A still-queued job never starts;
    /// a running job fails fast at its next round boundary (in-flight
    /// attempts observe [`TaskContext::is_cancelled`] and fail with
    /// [`EngineError::Cancelled`]), and its tenant admission slot,
    /// claim-pool slots, and job-stamped cache entries are released
    /// through the normal end-of-job cleanup. Idempotent; a no-op once
    /// the job has finished.
    pub fn cancel(&self) {
        self.state.cancelled.store(true, Ordering::Relaxed);
    }
}

struct QueuedJob {
    id: u64,
    tenant_id: u32,
    spec: JobSpec,
    state: Arc<JobState>,
    /// When the job was admitted — the epoch its deadline counts from.
    submitted: Instant,
}

struct TenantState {
    name: String,
    id: u32,
    max_in_flight: usize,
    in_flight: usize,
}

/// The index of `name`'s record, created uncapped on first sight.
fn tenant_slot(tenants: &mut Vec<TenantState>, name: &str) -> usize {
    if let Some(i) = tenants.iter().position(|t| t.name == name) {
        return i;
    }
    let id = tenants.len() as u32 + 1;
    tenants.push(TenantState {
        name: name.to_string(),
        id,
        max_in_flight: usize::MAX,
        in_flight: 0,
    });
    tenants.len() - 1
}

struct ServerInner {
    pool: Pool,
    exec_config: ExecutorConfig,
    queue: Mutex<VecDeque<QueuedJob>>,
    /// Runners wait here for queued jobs (and shutdown).
    job_cv: Condvar,
    shutdown: AtomicBool,
    next_job: AtomicU64,
    tenants: Mutex<Vec<TenantState>>,
}

/// Seal a job before its end-of-job cleanup releases its blocks: the
/// engine's roll-up of the job's record, as a session's summary reads it,
/// plus its stages and its run trace.
fn seal_job(
    engine: StageEngine,
    mut slots: PoolJob,
    checksum: f64,
    cache_bytes: usize,
) -> JobOutput {
    slots.seal_cache();
    JobOutput {
        job: slots.job,
        checksum,
        cache_bytes,
        metrics: engine.roll_up(&slots),
        trace: engine.job_trace(&slots),
        stages: engine.stages,
    }
}

// ----------------------------------------------------------------------
// runner threads
// ----------------------------------------------------------------------

fn run_job(inner: &ServerInner, q: QueuedJob) {
    let QueuedJob { id, tenant_id, spec, state, submitted } = q;
    let width = if spec.executors == 0 { inner.pool.executors() } else { spec.executors };
    // The shared pool never duplicates an attempt: idle workers serve
    // other jobs instead.
    let policy = spec.retry.unwrap_or(inner.exec_config.retry).speculate(false);
    let scheduler = spec.scheduler.unwrap_or(inner.exec_config.scheduler);
    let app = spec.app.expect("submit validates the app");
    let mut engine = StageEngine::new(width, policy, scheduler, inner.exec_config.tracing);
    engine.trace.set_job(id);
    engine.faults = spec.faults;
    let stop = Stop { cancel: state.cancelled.clone(), deadline: spec.deadline, submitted };
    let mut slots = inner.pool.job(id, Some(width), Some(tenant_id), Some(stop));
    // A job cancelled (or overdue) while still queued never runs its
    // body; it still flows through the full cleanup path below so its
    // admission slot and any stamped state are released.
    let (result, noted) = match engine.check_stop(&mut slots) {
        Err(err) => (Err(err), 0),
        Ok(()) => {
            let mut ctx = JobCtx { engine: &mut engine, slots: &mut slots, noted_cache_bytes: 0 };
            let r = match catch_unwind(AssertUnwindSafe(|| app.run(&mut ctx))) {
                Ok(r) => r,
                Err(p) => Err(EngineError::TaskPanic {
                    stage: app.name().to_string(),
                    task: 0,
                    message: panic_message(p),
                }),
            };
            (r, ctx.noted_cache_bytes())
        }
    };
    let output = match result {
        Ok(checksum) => Ok(seal_job(engine, slots, checksum, noted)),
        Err(err) => {
            // A cancel observed mid-stage (the tasks failed fast before
            // any boundary check ran) still gets its event and counter.
            if state.cancelled.load(Ordering::Relaxed) {
                engine.note_cancelled("job cancelled");
            }
            // Keep the failed job's partial roll-up reachable (the
            // JobCancelled event and `cancelled` counter live there).
            *lock(&state.partial) = Some(seal_job(engine, slots, f64::NAN, noted));
            Err(Arc::new(err))
        }
    };
    // End-of-job cleanup: release this job's cache blocks on every shared
    // executor so a long-lived server never accumulates finished jobs'
    // state.
    for mut e in inner.pool.each() {
        e.release_job_blocks(id);
    }
    // Release the tenant's admission slot *before* publishing the result:
    // a waiter that wakes on the result and immediately resubmits must not
    // race the slot release into a spurious AdmissionRejected.
    {
        let mut tenants = lock(&inner.tenants);
        if let Some(t) = tenants.iter_mut().find(|t| t.id == tenant_id) {
            t.in_flight = t.in_flight.saturating_sub(1);
        }
    }
    let mut slot = lock(&state.result);
    *slot = Some(output);
    state.cv.notify_all();
}

fn runner_loop(inner: &ServerInner) {
    loop {
        let next = {
            let mut queue = lock(&inner.queue);
            loop {
                if let Some(q) = queue.pop_front() {
                    break Some(q);
                }
                if inner.shutdown.load(Ordering::Relaxed) {
                    break None;
                }
                queue = inner.job_cv.wait(queue).unwrap_or_else(|p| p.into_inner());
            }
        };
        let Some(q) = next else { return };
        run_job(inner, q);
    }
}

// ----------------------------------------------------------------------
// DecaServer
// ----------------------------------------------------------------------

/// The job service. See the module docs for the execution model.
///
/// ```
/// use deca_engine::{AppJob, DecaServer, ExecutionMode, ExecutorConfig, JobSpec};
///
/// let cfg = ExecutorConfig::new(ExecutionMode::Deca, 16 << 20);
/// let server = DecaServer::new(2, cfg);
/// let job = AppJob::new("sum", |ctx| {
///     let parts = ctx.run_stage("sum", 3, |c, _e| Ok((c.task * 10) as f64))?;
///     Ok(parts.into_iter().sum())
/// });
/// let handle = server.submit(JobSpec::new("docs").app(job)).unwrap();
/// assert_eq!(handle.wait().unwrap().checksum, 30.0);
/// ```
pub struct DecaServer {
    inner: Arc<ServerInner>,
    jobs: Mutex<Vec<Arc<JobState>>>,
    runners: Vec<JoinHandle<()>>,
}

impl DecaServer {
    /// A server over `executors` identical shared executors, with as many
    /// runner threads and no admission cap.
    pub fn new(executors: usize, config: ExecutorConfig) -> DecaServer {
        DecaServer::with_config(ServerConfig::new(executors, config))
    }

    pub fn with_config(config: ServerConfig) -> DecaServer {
        assert!(config.executors > 0, "a server needs at least one executor");
        let inner = Arc::new(ServerInner {
            pool: Pool::new(vec![config.executor.clone(); config.executors]),
            exec_config: config.executor,
            queue: Mutex::new(VecDeque::new()),
            job_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_job: AtomicU64::new(0),
            tenants: Mutex::new(Vec::new()),
        });
        let runner_count = if config.runners == 0 { config.executors } else { config.runners };
        let runners = (0..runner_count)
            .map(|i| {
                let inner = inner.clone();
                spawn(format!("deca-runner-{i}"), move || runner_loop(&inner))
            })
            .collect();
        DecaServer { inner, jobs: Mutex::new(Vec::new()), runners }
    }

    /// Physical executors shared by all jobs.
    pub fn executors(&self) -> usize {
        self.inner.pool.executors()
    }

    /// Submit a job. Fails with [`EngineError::AdmissionRejected`] when
    /// the tenant is at its in-flight cap and
    /// [`EngineError::ServerShutdown`] after shutdown. The spec must
    /// carry an app ([`JobSpec::app`]).
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, EngineError> {
        assert!(spec.app.is_some(), "JobSpec needs an app (JobSpec::app)");
        if self.inner.shutdown.load(Ordering::Relaxed) {
            return Err(EngineError::ServerShutdown);
        }
        let tenant_id = {
            let mut tenants = lock(&self.inner.tenants);
            let idx = tenant_slot(&mut tenants, &spec.tenant);
            let t = &mut tenants[idx];
            if t.in_flight >= t.max_in_flight {
                return Err(EngineError::AdmissionRejected {
                    tenant: t.name.clone(),
                    in_flight: t.in_flight,
                    limit: t.max_in_flight,
                });
            }
            t.in_flight += 1;
            t.id
        };
        let id = self.inner.next_job.fetch_add(1, Ordering::Relaxed) + 1;
        let state = Arc::new(JobState {
            id,
            tenant: spec.tenant.clone(),
            cancelled: Arc::new(AtomicBool::new(false)),
            partial: Mutex::new(None),
            result: Mutex::new(None),
            cv: Condvar::new(),
        });
        lock(&self.jobs).push(state.clone());
        lock(&self.inner.queue).push_back(QueuedJob {
            id,
            tenant_id,
            spec,
            state: state.clone(),
            submitted: Instant::now(),
        });
        self.inner.job_cv.notify_one();
        Ok(JobHandle { state })
    }

    /// Cap `tenant`'s concurrently in-flight jobs (creating the tenant if
    /// it was never seen).
    pub fn configure_tenant(&self, tenant: &str, max_in_flight: usize) {
        let mut tenants = lock(&self.inner.tenants);
        let idx = tenant_slot(&mut tenants, tenant);
        tenants[idx].max_in_flight = max_in_flight.max(1);
    }

    fn tenant_id(&self, tenant: &str, create: bool) -> Option<u32> {
        let mut tenants = lock(&self.inner.tenants);
        if !create {
            return tenants.iter().find(|t| t.name == tenant).map(|t| t.id);
        }
        let idx = tenant_slot(&mut tenants, tenant);
        Some(tenants[idx].id)
    }

    /// Give `tenant` a shared-cache resident budget on every executor:
    /// while at or under it, other tenants' memory pressure cannot evict
    /// its blocks (see the cache's tenant shielding).
    pub fn set_tenant_cache_budget(&self, tenant: &str, bytes: usize) {
        let id = self.tenant_id(tenant, true).expect("tenant created");
        for mut e in self.inner.pool.each() {
            e.cache.set_tenant_budget(id, bytes);
        }
    }

    /// Resident in-memory cached bytes owned by `tenant` across the
    /// shared executors.
    pub fn tenant_resident_bytes(&self, tenant: &str) -> usize {
        let Some(id) = self.tenant_id(tenant, false) else { return 0 };
        self.inner.pool.each().map(|e| e.cache.tenant_resident_bytes(id, &e.mm)).sum()
    }

    /// Cold-tier evictions charged to `tenant` across the shared
    /// executors.
    pub fn tenant_evictions(&self, tenant: &str) -> u64 {
        let Some(id) = self.tenant_id(tenant, false) else { return 0 };
        self.inner.pool.each().map(|e| e.cache.tenant_evictions(id)).sum()
    }

    /// Page groups alive across the shared executors. Each is owned by a
    /// running job's container or cached block, so with no job in flight
    /// it is zero.
    pub fn live_groups(&self) -> usize {
        self.inner.pool.each().map(|e| e.mm.live_groups()).sum()
    }

    /// Every finished job's trace merged, in submission order. Per-job
    /// views come from [`RunTrace::of_job`]; events never bleed across
    /// jobs because every event is job-stamped at record time.
    pub fn merged_trace(&self) -> RunTrace {
        let mut events: Vec<TraceEvent> = Vec::new();
        for s in lock(&self.jobs).iter() {
            if let Some(Ok(out)) = lock(&s.result).as_ref() {
                events.extend(out.trace.events.iter().cloned());
            }
        }
        RunTrace { events }
    }

    /// Graceful shutdown: stop accepting submissions, drain the queue
    /// (every already-submitted job completes), and join all threads.
    /// Called by `Drop`; safe to call twice.
    pub fn shutdown(&mut self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        drop(lock(&self.inner.queue));
        self.inner.job_cv.notify_all();
        for h in self.runners.drain(..) {
            let _ = h.join();
        }
        // Every job has finished, so no round is left on the pool's board.
        self.inner.pool.shutdown();
    }
}

impl Drop for DecaServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultSite;
    use crate::trace::TraceEventKind;

    fn cfg() -> ExecutorConfig {
        ExecutorConfig::new(ExecutionMode::Spark, 8 << 20)
    }

    fn sum_job() -> AppJob {
        AppJob::new("sum", |ctx| {
            let parts = ctx.run_stage("sum", 5, |c, _e| Ok((c.task * 10) as f64))?;
            Ok(parts.into_iter().sum())
        })
    }

    #[test]
    fn submits_and_waits() {
        let server = DecaServer::new(2, cfg());
        let h = server.submit(JobSpec::new("t").app(sum_job())).unwrap();
        let out = h.wait().unwrap();
        assert_eq!(out.checksum, 100.0);
        assert_eq!(out.job, h.id());
        assert_eq!(out.metrics.job, h.id());
        assert_eq!(out.stages.len(), 1);
        assert_eq!(out.stages[0].tasks, 5);
        assert_eq!(out.stages[0].attempts, 5);
    }

    /// Jobs sharing a server's executors split their lifetime work: the
    /// served jobs' counts, a forced OOM re-run's spill and collection
    /// included, sum to the pool's lifetime counts, so no job's collections
    /// land in another's record or outside every record.
    #[test]
    fn served_jobs_sum_to_the_executors_lifetime_counts() {
        use deca_heap::{ClassBuilder, FieldKind};
        let server = DecaServer::new(2, cfg());
        // Each task keeps a window of its objects rooted, so the minor
        // collections trace survivors.
        let churn = || {
            AppJob::new("churn", |ctx| {
                let parts = ctx.run_stage("churn", 4, |c, e| {
                    let class =
                        e.heap.define_class(ClassBuilder::new("T").field("a", FieldKind::I64));
                    let array = e.heap.define_array_class("T[]", FieldKind::Ref);
                    let holder = e.heap.alloc_array(array, 512)?;
                    let root = e.heap.add_root(holder);
                    for i in 0..60_000 {
                        let o = e.heap.alloc(class)?;
                        let holder = e.heap.root_ref(root);
                        e.heap.array_set_ref(holder, i % 512, o);
                    }
                    e.heap.remove_root(root);
                    Ok(c.task as f64)
                })?;
                Ok(parts.into_iter().sum())
            })
        };
        let oom = FaultPlan::quiet().force(FaultSite::Alloc, "churn", Some(1), Some(0));
        let handles: Vec<_> = (0..4)
            .map(|j| {
                let spec = JobSpec::new("t").app(churn());
                let spec = if j == 2 { spec.faults(oom.clone()) } else { spec };
                server.submit(spec).unwrap()
            })
            .collect();
        let mut served = [0u64; 3];
        for h in &handles {
            let m = h.wait().unwrap().metrics;
            for (sum, n) in served.iter_mut().zip([m.minor_gcs, m.full_gcs, m.objects_traced]) {
                *sum += n;
            }
        }
        let mut lifetime = [0u64; 3];
        for e in server.inner.pool.each() {
            let w = e.work();
            for (sum, n) in lifetime.iter_mut().zip([w.minor_gcs, w.full_gcs, w.objects_traced]) {
                *sum += n;
            }
        }
        assert!(served.iter().all(|&n| n > 0), "the jobs collected and traced: {served:?}");
        assert_eq!(served, lifetime, "[minor, full, objects traced]");
    }

    #[test]
    fn shuffle_jobs_exchange_all_to_all() {
        let server = DecaServer::new(3, cfg());
        let job = AppJob::new("x", |ctx| {
            let got = ctx.run_shuffle_job(
                "x",
                3,
                2,
                |c, e| {
                    Ok((0..2)
                        .map(|_| {
                            let mut run = e.new_run();
                            run.push(&mut e.arena, &[c.task as u8]);
                            e.hand_over(run)
                        })
                        .collect())
                },
                |_c, _e, inputs| Ok(inputs.iter().map(|b| b.contiguous()[0] as f64).sum::<f64>()),
            )?;
            assert_eq!(got, vec![3.0, 3.0]);
            Ok(got.into_iter().sum())
        });
        let out = server.submit(JobSpec::new("t").app(job)).unwrap().wait().unwrap();
        assert_eq!(out.checksum, 6.0);
        let map = out.stages.iter().find(|s| s.name == "x-map").unwrap();
        assert_eq!(map.shuffle_bytes, 6);
        assert_eq!(map.shuffle_pages, 6);
    }

    #[test]
    fn width_is_virtual_not_physical() {
        // A width-5 job on a 2-executor server: task homes follow the
        // virtual width, like a standalone 5-executor session.
        let server = DecaServer::new(2, cfg());
        let job = AppJob::new("w", |ctx| {
            assert_eq!(ctx.executors(), 5);
            let v = ctx.run_stage("w", 7, |c, _e| Ok(c.task as f64))?;
            Ok(v.into_iter().sum())
        });
        let out = server.submit(JobSpec::new("t").executors(5).app(job)).unwrap().wait().unwrap();
        assert_eq!(out.checksum, 21.0);
    }

    #[test]
    fn admission_caps_in_flight_jobs_per_tenant() {
        let server = DecaServer::with_config(ServerConfig::new(1, cfg()).runners(1));
        server.configure_tenant("capped", 1);
        // A job that blocks until we let it finish, holding the tenant's
        // only admission slot.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = gate.clone();
        let blocker = AppJob::new("block", move |ctx| {
            let g = g.clone();
            ctx.run_stage("block", 1, move |_c, _e| {
                let (m, cv) = &*g;
                let mut open = lock(m);
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                Ok(0.0)
            })?;
            Ok(0.0)
        });
        let h = server.submit(JobSpec::new("capped").app(blocker)).unwrap();
        let err = server.submit(JobSpec::new("capped").app(sum_job())).unwrap_err();
        match err {
            EngineError::AdmissionRejected { tenant, in_flight, limit } => {
                assert_eq!(tenant, "capped");
                assert_eq!((in_flight, limit), (1, 1));
            }
            other => panic!("expected AdmissionRejected, got {other}"),
        }
        // Another tenant is not affected by the capped tenant's limit.
        // (Queued behind the blocker on this 1-runner server, so release
        // the gate before waiting.)
        let other = server.submit(JobSpec::new("open").app(sum_job())).unwrap();
        {
            let (m, cv) = &*gate;
            *lock(m) = true;
            cv.notify_all();
        }
        h.wait().unwrap();
        other.wait().unwrap();
        // The slot freed: the capped tenant can submit again.
        let again = server.submit(JobSpec::new("capped").app(sum_job())).unwrap();
        assert_eq!(again.wait().unwrap().checksum, 100.0);
    }

    #[test]
    fn shutdown_drains_then_rejects() {
        let mut server = DecaServer::new(2, cfg());
        let h = server.submit(JobSpec::new("t").app(sum_job())).unwrap();
        server.shutdown();
        assert_eq!(h.wait().unwrap().checksum, 100.0, "submitted jobs drain");
        let err = server.submit(JobSpec::new("t").app(sum_job())).unwrap_err();
        assert!(matches!(err, EngineError::ServerShutdown), "{err}");
    }

    #[test]
    fn task_panic_is_contained_to_its_job() {
        let server = DecaServer::new(2, cfg());
        let bad = AppJob::new("bad", |ctx| {
            ctx.run_stage("bad", 2, |c, _e| {
                if c.task == 1 {
                    panic!("boom in task");
                }
                Ok(0.0)
            })?;
            Ok(0.0)
        });
        let err = server.submit(JobSpec::new("t").app(bad)).unwrap().wait().unwrap_err();
        assert!(err.to_string().contains("panicked"), "{err}");
        // The shared cluster still serves other jobs.
        let ok = server.submit(JobSpec::new("t").app(sum_job())).unwrap().wait().unwrap();
        assert_eq!(ok.checksum, 100.0);
    }

    #[test]
    fn deadline_zero_job_is_cancelled_before_it_starts() {
        let server = DecaServer::new(2, cfg());
        server.configure_tenant("t", 1);
        let ran = Arc::new(AtomicBool::new(false));
        let r = ran.clone();
        let job = AppJob::new("late", move |ctx| {
            r.store(true, Ordering::Relaxed);
            let parts = ctx.run_stage("late", 2, |c, _e| Ok(c.task as f64))?;
            Ok(parts.into_iter().sum())
        });
        let h = server.submit(JobSpec::new("t").deadline(Duration::ZERO).app(job)).unwrap();
        let err = h.wait().unwrap_err();
        assert!(matches!(&*err, EngineError::Cancelled { .. }), "{err}");
        assert!(err.to_string().contains("deadline"), "{err}");
        assert!(!ran.load(Ordering::Relaxed), "an overdue queued job never runs its body");
        // The cancellation is observable through the partial roll-up.
        let m = h.metrics().expect("partial metrics of a cancelled job");
        assert_eq!(m.cancelled, 1);
        let trace = h.trace().expect("partial trace of a cancelled job");
        assert_eq!(trace.of_kind(TraceEventKind::JobCancelled).count(), 1);
        // The tenant's admission slot was released by the cleanup path.
        let again = server.submit(JobSpec::new("t").app(sum_job())).unwrap();
        assert_eq!(again.wait().unwrap().checksum, 100.0);
    }

    #[test]
    fn cancel_stops_a_running_job_and_frees_its_state() {
        let server = DecaServer::new(2, cfg());
        server.configure_tenant("t", 1);
        // The task cooperatively polls its cancel token; without the
        // cancel it would spin forever.
        let spinner = AppJob::new("spin", |ctx| {
            ctx.run_stage("spin", 2, |c, _e| -> Result<(), EngineError> {
                while !c.is_cancelled() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(EngineError::Cancelled { reason: "token observed".to_string() })
            })?;
            Ok(0.0)
        });
        let h = server.submit(JobSpec::new("t").app(spinner)).unwrap();
        h.cancel();
        let err = h.wait().unwrap_err();
        assert!(err.to_string().contains("cancel"), "{err}");
        let m = h.metrics().expect("partial metrics of a cancelled job");
        assert_eq!(m.cancelled, 1);
        // Claim-pool slots and the admission slot are released: the
        // tenant's next job runs to completion on the same server.
        let again = server.submit(JobSpec::new("t").app(sum_job())).unwrap();
        assert_eq!(again.wait().unwrap().checksum, 100.0);
    }

    #[test]
    fn job_traces_are_job_scoped() {
        let server = DecaServer::new(2, cfg());
        let a = server.submit(JobSpec::new("t").app(sum_job())).unwrap();
        let b = server.submit(JobSpec::new("t").app(sum_job())).unwrap();
        let (ra, rb) = (a.wait().unwrap(), b.wait().unwrap());
        for (h, out) in [(&a, &ra), (&b, &rb)] {
            assert!(!out.trace.is_empty());
            assert!(out.trace.events.iter().all(|e| e.job == h.id()), "no cross-job bleed");
        }
        let merged = server.merged_trace();
        let mut jobs = merged.jobs();
        jobs.sort_unstable();
        assert_eq!(jobs, vec![a.id(), b.id()]);
        assert_eq!(merged.of_job(a.id()).count(), ra.trace.len());
        assert_eq!(merged.of_job(b.id()).count(), rb.trace.len());
    }

    // ------------------------------------------------------------------
    // one engine, two slot sources: the fault scenarios, table-driven
    // ------------------------------------------------------------------

    /// One fault scenario: stages run in order (a stage's error is logged
    /// and the job carries on, so "quarantine everyone, then abort" fits),
    /// task `t` yielding `t * 3` unless it is the row's panicking task.
    struct Scenario {
        name: &'static str,
        width: usize,
        policy: RetryPolicy,
        plan: FaultPlan,
        stages: &'static [(&'static str, usize)],
        panics: Option<(&'static str, usize)>,
        /// Row-specific expectations, checked on the standalone run.
        expect: fn(&Observed),
    }

    /// Per-stage `(name, tasks, aborted, [attempts, retries, quarantines,
    /// restarts, oom_reruns, oom_recoveries, timeouts])`.
    type StageRow = (String, usize, bool, [u64; 7]);

    /// What a run of a scenario shows, in a form comparable across sources.
    #[derive(Debug, PartialEq)]
    struct Observed {
        /// Per stage: the task-order results, or the error's debug form.
        log: Vec<Result<Vec<usize>, String>>,
        stages: Vec<StageRow>,
        /// Driver-side events, in merged logical order:
        /// `(kind, task, executor, count)`.
        driver_events: Vec<(TraceEventKind, Option<usize>, Option<usize>, u64)>,
    }

    impl Observed {
        fn new(
            log: Vec<Result<Vec<usize>, String>>,
            stages: &[StageMetrics],
            trace: &RunTrace,
        ) -> Observed {
            const DRIVER_KINDS: [TraceEventKind; 8] = [
                TraceEventKind::StageStart,
                TraceEventKind::StageEnd,
                TraceEventKind::Retry,
                TraceEventKind::Quarantine,
                TraceEventKind::Restart,
                TraceEventKind::OomRecovery,
                TraceEventKind::TaskTimeout,
                TraceEventKind::JobCancelled,
            ];
            Observed {
                log,
                stages: stages
                    .iter()
                    .map(|s| {
                        let counters = [
                            s.attempts,
                            s.retries,
                            s.quarantines,
                            s.restarts,
                            s.oom_reruns,
                            s.oom_recoveries,
                            s.timeouts,
                        ];
                        (s.name.clone(), s.tasks, s.aborted, counters)
                    })
                    .collect(),
                driver_events: trace
                    .events
                    .iter()
                    .filter(|e| DRIVER_KINDS.contains(&e.kind))
                    .map(|e| (e.kind, e.task, e.executor, e.count))
                    .collect(),
            }
        }

        fn stage(&self, name: &str) -> &StageRow {
            self.stages.iter().find(|s| s.0 == name).expect("stage ran")
        }
    }

    type StageLog = Arc<Mutex<Vec<Result<Vec<usize>, String>>>>;

    /// The scenario as an app: the same body runs on both slot sources.
    fn scenario_app(sc: &Scenario, log: StageLog) -> AppJob {
        let (stages, panics) = (sc.stages, sc.panics);
        AppJob::new(sc.name, move |ctx| {
            let mut last = Ok(0.0);
            for &(stage, tasks) in stages {
                let r = ctx.run_stage(stage, tasks, |c, _e| {
                    if panics == Some((stage, c.task)) {
                        panic!("boom in task");
                    }
                    Ok(c.task * 3)
                });
                lock(&log).push(r.as_ref().map(Vec::clone).map_err(|e| format!("{e:?}")));
                last = r.map(|v| v.len() as f64);
            }
            last
        })
    }

    fn scenarios() -> Vec<Scenario> {
        let resilient = RetryPolicy::resilient();
        let force =
            |site, stage, task, attempt| FaultPlan::quiet().force(site, stage, task, attempt);
        vec![
            Scenario {
                name: "transient failure retries on the next executor",
                width: 2,
                policy: resilient,
                plan: force(FaultSite::TaskBody, "flaky", Some(1), Some(0)),
                stages: &[("flaky", 4)],
                panics: None,
                expect: |o| {
                    assert_eq!(o.log, vec![Ok(vec![0, 3, 6, 9])]);
                    assert_eq!(o.stage("flaky").3, [5, 1, 0, 0, 0, 0, 0]);
                    // Failed on lane 1, rescheduled onto lane 0.
                    assert!(o.driver_events.contains(&(
                        TraceEventKind::Retry,
                        Some(1),
                        Some(1),
                        0
                    )));
                },
            },
            Scenario {
                name: "crash poisons a lane, then quarantines it",
                width: 2,
                policy: resilient,
                plan: force(FaultSite::ExecutorCrash, "crashy", Some(1), Some(0)),
                stages: &[("crashy", 6), ("after", 4)],
                panics: None,
                expect: |o| {
                    assert!(o.log.iter().all(|r| r.is_ok()));
                    // Lane 1's whole home queue (tasks 1, 3, 5) fails.
                    assert_eq!(o.stage("crashy").3, [9, 3, 1, 0, 0, 0, 0]);
                    assert_eq!(o.stage("after").3, [4, 0, 0, 0, 0, 0, 0]);
                },
            },
            Scenario {
                name: "the last lane is restarted in place, not quarantined",
                width: 1,
                policy: resilient,
                plan: force(FaultSite::ExecutorCrash, "solo", Some(0), Some(0)),
                stages: &[("solo", 3)],
                panics: None,
                expect: |o| {
                    assert_eq!(o.log, vec![Ok(vec![0, 3, 6])]);
                    let [_, _, quarantines, restarts, ..] = o.stage("solo").3;
                    assert_eq!((quarantines, restarts), (0, 1));
                },
            },
            Scenario {
                name: "forced alloc failure re-runs in place after a spill",
                width: 2,
                // Even fail-fast (max_attempts = 1) degrades OOM gracefully.
                policy: RetryPolicy::default(),
                plan: force(FaultSite::Alloc, "mem", Some(2), Some(0)),
                stages: &[("mem", 4)],
                panics: None,
                expect: |o| {
                    assert_eq!(o.log, vec![Ok(vec![0, 3, 6, 9])]);
                    assert_eq!(o.stage("mem").3, [5, 0, 0, 0, 1, 1, 0]);
                },
            },
            Scenario {
                name: "a hung task is timed out, charged, and retried",
                width: 2,
                policy: resilient.task_deadline(Duration::from_millis(25)),
                plan: force(FaultSite::TaskHang, "hang", Some(1), Some(0)),
                stages: &[("hang", 4)],
                panics: None,
                expect: |o| {
                    assert_eq!(o.log, vec![Ok(vec![0, 3, 6, 9])]);
                    assert_eq!(o.stage("hang").3, [5, 1, 0, 0, 0, 0, 1]);
                },
            },
            Scenario {
                name: "attempts exhausted fails task-attributed and transient",
                width: 2,
                policy: resilient.max_attempts(2),
                plan: force(FaultSite::TaskBody, "doom", Some(1), None),
                stages: &[("doom", 2)],
                panics: None,
                expect: |o| {
                    let err = o.log[0].as_ref().unwrap_err();
                    assert!(err.starts_with("Task { stage: \"doom\", task: 1"), "{err}");
                    assert_eq!(o.stage("doom").3, [3, 1, 0, 0, 0, 0, 0]);
                },
            },
            Scenario {
                name: "losing every lane aborts the next stage up front",
                width: 2,
                policy: resilient.quarantine_after(1).spare_last_executor(false),
                plan: force(FaultSite::ExecutorCrash, "melt", None, None),
                stages: &[("melt", 4), ("after", 3)],
                panics: None,
                expect: |o| {
                    assert!(o.log[0].is_err());
                    let err = o.log[1].as_ref().unwrap_err();
                    assert!(
                        err.contains("AllExecutorsLost { executors: 2, quarantined: 2 }"),
                        "{err}"
                    );
                    assert_eq!(o.stage("melt").3[2], 2, "both lanes quarantined");
                    assert_eq!(o.stage("after"), &("after".to_string(), 0, true, [0; 7]));
                },
            },
            Scenario {
                name: "a panicking task body is a fatal, task-attributed TaskPanic",
                width: 2,
                policy: resilient,
                plan: FaultPlan::quiet(),
                stages: &[("boom", 3)],
                panics: Some(("boom", 1)),
                expect: |o| {
                    let err = o.log[0].as_ref().unwrap_err();
                    assert!(err.contains("TaskPanic { stage: \"boom\", task: 1"), "{err}");
                    assert_eq!(o.stage("boom").3, [3, 0, 0, 0, 0, 0, 0], "fatal: never retried");
                },
            },
        ]
    }

    #[test]
    fn fault_scenarios_resolve_identically_on_both_slot_sources() {
        for sc in scenarios() {
            for sched in [SchedulerMode::Wave, SchedulerMode::Pull] {
                let what = format!("{} [{sched}]", sc.name);
                let config = cfg().scheduler(sched).retry(sc.policy);

                // Standalone at width W.
                let log = StageLog::default();
                let mut session = ClusterSession::new(sc.width, config.clone());
                session.install_faults(sc.plan.clone());
                let _ = scenario_app(&sc, log.clone()).run(&mut JobCtx::local(&mut session));
                let log = std::mem::take(&mut *lock(&log));
                let local = Observed::new(log, session.stages(), &session.merged_trace());
                (sc.expect)(&local);

                // A server job at virtual width W, on E = W and on E < W
                // physical executors.
                let mut physical = vec![sc.width, 1];
                physical.dedup();
                for e in physical {
                    let log = StageLog::default();
                    let server = DecaServer::new(e, config.clone());
                    let spec = JobSpec::new("t")
                        .executors(sc.width)
                        .retry(sc.policy)
                        .scheduler(sched)
                        .faults(sc.plan.clone())
                        .app(scenario_app(&sc, log.clone()));
                    let h = server.submit(spec).unwrap();
                    let out = match h.wait() {
                        Ok(out) => out,
                        Err(_) => lock(&h.state.partial).clone().expect("a failed job's roll-up"),
                    };
                    let log = std::mem::take(&mut *lock(&log));
                    let served = Observed::new(log, &out.stages, &out.trace);
                    assert_eq!(served, local, "{what}: width {} on {e} executors", sc.width);
                }
            }
        }
    }
}
