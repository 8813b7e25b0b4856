//! The worker pool: the one place a job's rounds physically run.
//!
//! The paper's executors are long-lived JVM processes serving many jobs
//! (§6.1). A [`Pool`] is `E` executors, each behind a mutex and bound to
//! one long-lived worker thread `deca-worker-{i}`, which holds the mutex
//! while it runs an attempt (the single-writer discipline the heap/GC
//! model relies on). A [`ClusterSession`](crate::ClusterSession) drives one
//! job on a private pool; a [`DecaServer`](crate::DecaServer) drives many
//! jobs on a shared one. Either way a job's [`PoolJob`] publishes each
//! [`Round`] to the pool's board, waits until every copy of every slot has
//! run, and retires it. Workers claim slots **affinity first** (lowest task
//! first; pinned slots only run here), then **steal** unpinned ones; across
//! rounds a worker picks the job with the fewest running claims (ties to the
//! lower job id); with nothing to claim it watches speculating rounds for
//! stragglers to duplicate. Only the lane kind ([`Lanes`]) and the stop
//! handle ([`Stop`]) differ per job (see the slot-source table in
//! `stage.rs`).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::config::{ExecutionMode, ExecutorConfig};
use crate::driver::ShufflePayload;
use crate::error::EngineError;
use crate::executor::Executor;
use crate::metrics::{JobMetrics, TaskMetrics};
use crate::stage::{lock, panic_message, AttemptDone, AttemptFn, Round, Site, Slot};
use crate::trace::TraceEvent;

/// Token for attempts that can never be cancelled: a session's rounds
/// without speculation.
static NEVER_CANCELLED: AtomicBool = AtomicBool::new(false);

/// How often a worker with nothing to claim re-checks a speculating round
/// for stragglers.
const WATCH_POLL: Duration = Duration::from_micros(200);

/// How long a worker keeps polling the board, yielding its CPU between
/// polls, before it parks. A round's workers parked and woken together
/// often ran one after the other while a CPU idled (`lr-gcbound`'s Deca job
/// took 48 ms against 34 ms on 2 vCPUs); a worker still polling claims the
/// next round's slots where it already runs.
const SPIN: Duration = Duration::from_micros(200);

/// A job's lanes: the executors as the job sees them.
#[derive(Clone)]
pub(crate) enum Lanes {
    /// Lane `i` is the pool's executor `i`: a death poisons the process,
    /// and every attempt observes the health of the executor it runs on.
    Physical,
    /// `W` virtual lanes, lane `v` at home on worker `v % E`: a death
    /// poisons the job's flag for the lane, observed only at home.
    Virtual(Arc<Vec<AtomicBool>>),
}

/// A job's cancel flag (shared with its handle) and wall-clock deadline
/// from `submitted`; a session has neither.
pub(crate) struct Stop {
    pub cancel: Arc<AtomicBool>,
    pub deadline: Option<Duration>,
    pub submitted: Instant,
}

/// What a worker hands back for one physical attempt: the outcome plus the
/// trace events it produced on the executor, routed to the owning job.
type SlotDone = (AttemptDone, Vec<TraceEvent>);

/// Shared bookkeeping for one speculating round: who is running each
/// slot's primary, since when, how long its first finished copy took, and
/// the cancel token pair (`[primary, duplicate]`) each slot's copies poll.
/// Wall-clock time here steers *where* duplicates launch — never what the
/// job computes, because the engine reconciles the copies in task order.
struct SpecRound {
    epoch: Instant,
    /// Per-slot primary start, ns since `epoch` plus one (0 = unstarted).
    started: Vec<AtomicU64>,
    /// Worker running each slot's primary copy.
    runner: Vec<AtomicUsize>,
    /// Wall duration of the slot's first finished copy, ns, at least 1 (0 =
    /// no copy finished yet).
    dur: Vec<AtomicU64>,
    /// A duplicate has been launched for the slot.
    taken: Vec<AtomicBool>,
    cancels: Vec<[AtomicBool; 2]>,
}

impl SpecRound {
    fn new(slots: usize) -> SpecRound {
        SpecRound {
            epoch: Instant::now(),
            started: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            runner: (0..slots).map(|_| AtomicUsize::new(usize::MAX)).collect(),
            dur: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            taken: (0..slots).map(|_| AtomicBool::new(false)).collect(),
            cancels: (0..slots).map(|_| [AtomicBool::new(false), AtomicBool::new(false)]).collect(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// One copy of slot `j` finished: record the slot's duration sample if
    /// it is the first, and cancel the other copy cooperatively.
    fn finish(&self, j: usize, started_ns: u64, loser_copy: usize) {
        let d = self.now_ns().saturating_sub(started_ns).max(1);
        let _ = self.dur[j].compare_exchange(0, d, Ordering::Relaxed, Ordering::Relaxed);
        self.cancels[j][loser_copy].store(true, Ordering::Relaxed);
    }

    fn unfinished(&self) -> bool {
        self.dur.iter().any(|d| d.load(Ordering::Relaxed) == 0)
    }

    /// The staleness threshold: twice the median duration of the round's
    /// completed copies — available only once at least half the round has
    /// completed (the estimate needs evidence).
    fn stale_threshold_ns(&self) -> Option<u64> {
        let mut ds: Vec<u64> =
            self.dur.iter().map(|d| d.load(Ordering::Relaxed)).filter(|&d| d > 0).collect();
        if ds.len() * 2 < self.dur.len() {
            return None;
        }
        ds.sort_unstable();
        Some(ds.get(ds.len() / 2)?.saturating_mul(2))
    }
}

struct RoundState {
    done: Vec<SlotDone>,
    /// Slots whose primary copy has not returned yet.
    primaries_left: usize,
    /// Speculative duplicates launched and not yet returned. A duplicate
    /// launches only while `primaries_left > 0`, so once both reach zero
    /// the round is over for good.
    duplicates_running: usize,
}

/// One scheduling round of one job's stage, published to the board.
/// Slots are `(task, attempt, home lane)`, ascending by task.
struct PoolRound {
    /// Stamped on the executor trace; the fair-share tiebreak.
    job: u64,
    /// A server job's tenant: its attempts stamp cache blocks with
    /// `(job, tenant)`. A session's blocks are unowned.
    tenant: Option<u32>,
    lanes: Lanes,
    stage: String,
    slots: Vec<Slot>,
    /// Slots that must run at home; the rest may be stolen.
    pinned: Vec<bool>,
    claimed: Vec<AtomicBool>,
    /// Claims of this round currently executing — the fair-share signal.
    /// A job publishes one round at a time, so this is the job's count.
    running: AtomicUsize,
    /// Per worker: may it run this round's slots homed elsewhere (steals
    /// and duplicates)?
    thieves: Vec<AtomicBool>,
    cancel: Option<Arc<AtomicBool>>,
    spec: Option<SpecRound>,
    /// The engine's attempt body, borrowed from the driver's stage frame.
    /// SAFETY: `PoolJob::run_round` waits until every copy it launched has
    /// returned and retires the round before returning, so no worker
    /// dereferences this afterwards.
    attempt: &'static AttemptFn<'static>,
    state: Mutex<RoundState>,
    done_cv: Condvar,
}

impl PoolRound {
    /// Hand back one returned copy, waking the driver when it is the last.
    fn deposit(&self, done: SlotDone) {
        self.running.fetch_sub(1, Ordering::Relaxed);
        let mut st = lock(&self.state);
        if done.0.speculative {
            st.duplicates_running -= 1;
        } else {
            st.primaries_left -= 1;
        }
        st.done.push(done);
        if st.primaries_left == 0 && st.duplicates_running == 0 {
            self.done_cv.notify_all();
        }
    }
}

struct Board {
    rounds: Vec<Arc<PoolRound>>,
    shutdown: bool,
}

struct Shared {
    executors: Vec<Mutex<Executor>>,
    board: Mutex<Board>,
    /// Workers wait here for claimable slots (and shutdown).
    work_cv: Condvar,
}

/// The executors and their long-lived workers. Dropping the pool stops
/// and joins the workers.
pub(crate) struct Pool {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Pool {
    /// One executor and one worker thread per config. Executor `i` spills
    /// under `exec-{i}` in its config's spill directory, so executors
    /// never alias spill files.
    pub fn new(configs: Vec<ExecutorConfig>) -> Pool {
        let executors = configs
            .into_iter()
            .enumerate()
            .map(|(i, mut c)| {
                c.spill_dir = c.spill_dir.join(format!("exec-{i}"));
                Mutex::new(Executor::new(c))
            })
            .collect();
        let shared = Arc::new(Shared {
            executors,
            board: Mutex::new(Board { rounds: Vec::new(), shutdown: false }),
            work_cv: Condvar::new(),
        });
        let workers = (0..shared.executors.len())
            .map(|i| {
                let shared = shared.clone();
                spawn(format!("deca-worker-{i}"), move || worker_loop(&shared, i))
            })
            .collect();
        Pool { shared, workers: Mutex::new(workers) }
    }

    pub fn executors(&self) -> usize {
        self.shared.executors.len()
    }

    /// Executor `i`, locked. Between rounds no worker holds it.
    pub fn executor(&self, i: usize) -> MutexGuard<'_, Executor> {
        lock(&self.shared.executors[i])
    }

    /// Every executor in order, each locked while it is visited.
    pub fn each(&self) -> impl Iterator<Item = MutexGuard<'_, Executor>> {
        self.shared.executors.iter().map(lock)
    }

    /// A job's view of the pool: its lanes (`width` virtual ones, or the
    /// physical executors when `width` is `None`), its tenant and its stop
    /// handle.
    pub fn job(
        &self,
        job: u64,
        width: Option<usize>,
        tenant: Option<u32>,
        stop: Option<Stop>,
    ) -> PoolJob {
        let lanes = match width {
            None => Lanes::Physical,
            Some(w) => Lanes::Virtual(Arc::new((0..w).map(|_| AtomicBool::new(false)).collect())),
        };
        let width = width.unwrap_or(self.executors());
        PoolJob {
            shared: self.shared.clone(),
            job,
            tenant,
            lanes,
            stop,
            events: Vec::new(),
            metrics: JobMetrics::default(),
            busy: vec![Duration::ZERO; width],
            slowest: None,
        }
    }

    /// Stop the workers once the board is empty and join them.
    /// Idempotent.
    pub fn shutdown(&self) {
        lock(&self.shared.board).shutdown = true;
        self.shared.work_cv.notify_all();
        for h in lock(&self.workers).drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ----------------------------------------------------------------------
// worker threads
// ----------------------------------------------------------------------

/// Start a named engine thread: a pool worker, or a server's job runner.
/// The engine starts threads nowhere else.
pub(crate) fn spawn(name: String, f: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new().name(name).spawn(f).expect("spawn an engine thread")
}

/// A worker's next piece of work: a round, a slot, and whether this copy
/// is a speculative duplicate.
type Claim = (Arc<PoolRound>, usize, bool);

/// Pick the best claimable primary for `worker`, or `None`. Affinity
/// candidates beat steal candidates across all rounds; within a class,
/// prefer the job with the fewest running claims, tie on the lower job id,
/// then the lower task index — deterministic fair sharing.
fn find_claim(board: &Board, worker: usize, executors: usize) -> Option<(usize, usize)> {
    let candidates = board.rounds.iter().enumerate().filter_map(|(ri, round)| {
        let free = |j: usize| !round.claimed[j].load(Ordering::Relaxed);
        let home = |j: usize| round.slots[j].2 % executors == worker;
        let n = round.slots.len();
        let (j, steal) =
            (0..n).find(|&j| free(j) && home(j)).map(|j| (j, false)).or_else(|| {
                let thief = round.thieves[worker].load(Ordering::Relaxed);
                (0..n)
                    .find(|&j| thief && free(j) && !home(j) && !round.pinned[j])
                    .map(|j| (j, true))
            })?;
        let key = (steal, round.running.load(Ordering::Relaxed), round.job, round.slots[j].0);
        Some((key, ri, j))
    });
    candidates.min_by_key(|c| c.0).map(|(_, ri, j)| (ri, j))
}

/// A straggler `worker` may duplicate: an unpinned slot whose primary runs
/// on another worker past twice the median completed duration. Pinned
/// (fault-affected) slots are never duplicated — their failure must land
/// on the home lane.
fn find_duplicate(board: &Board, worker: usize) -> Option<Claim> {
    for round in &board.rounds {
        let Some(s) = &round.spec else { continue };
        if !round.thieves[worker].load(Ordering::Relaxed) {
            continue;
        }
        let Some(stale) = s.stale_threshold_ns() else { continue };
        let now_ns = s.now_ns();
        for j in 0..round.slots.len() {
            let started = s.started[j].load(Ordering::Relaxed);
            if round.pinned[j]
                || s.dur[j].load(Ordering::Relaxed) > 0
                || started == 0
                || s.runner[j].load(Ordering::Relaxed) == worker
                || now_ns.saturating_sub(started) <= stale
                || s.taken[j].swap(true, Ordering::Relaxed)
            {
                continue;
            }
            let mut st = lock(&round.state);
            if st.primaries_left == 0 {
                return None;
            }
            st.duplicates_running += 1;
            return Some((round.clone(), j, true));
        }
    }
    None
}

/// Does `worker` have a speculating round to keep watching?
fn watching(board: &Board, worker: usize) -> bool {
    board.rounds.iter().any(|r| {
        r.spec.as_ref().is_some_and(SpecRound::unfinished)
            && r.thieves[worker].load(Ordering::Relaxed)
    })
}

fn next_claim(shared: &Shared, worker: usize) -> Option<Claim> {
    let executors = shared.executors.len();
    let spin_until = Instant::now() + SPIN;
    let mut board = lock(&shared.board);
    loop {
        let claim = find_claim(&board, worker, executors)
            .map(|(ri, j)| {
                let round = board.rounds[ri].clone();
                round.claimed[j].store(true, Ordering::Relaxed);
                (round, j, false)
            })
            .or_else(|| find_duplicate(&board, worker));
        if let Some(claim) = claim {
            claim.0.running.fetch_add(1, Ordering::Relaxed);
            return Some(claim);
        }
        if board.shutdown {
            return None;
        }
        if Instant::now() < spin_until {
            drop(board);
            std::thread::yield_now();
            board = lock(&shared.board);
            continue;
        }
        board = if watching(&board, worker) {
            shared.work_cv.wait_timeout(board, WATCH_POLL).unwrap_or_else(|p| p.into_inner()).0
        } else {
            shared.work_cv.wait(board).unwrap_or_else(|p| p.into_inner())
        };
    }
}

fn worker_loop(shared: &Shared, worker: usize) {
    while let Some((round, j, speculative)) = next_claim(shared, worker) {
        // The engine's attempt body contains task panics; one escaping it
        // still must not wedge the round, so it fails the attempt here.
        let done = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute(shared, worker, &round, j, speculative)
        }))
        .unwrap_or_else(|p| {
            let (task, attempt, home) = round.slots[j];
            let stage = round.stage.clone();
            let done = AttemptDone {
                task,
                attempt,
                lane: if matches!(round.lanes, Lanes::Physical) { worker } else { home },
                speculative,
                result: Err(EngineError::TaskPanic { stage, task, message: panic_message(p) }),
                oom_rerun: false,
                oom_recovered: false,
                died: false,
                task_metrics: Vec::new(),
            };
            (done, Vec::new())
        });
        round.deposit(done);
    }
}

/// Run one copy of slot `j` on `worker`'s executor: stamp its trace (and,
/// for a server job, its cache) with the owning job, run the engine's
/// attempt body against the slot's lane, and drain the trace events it
/// produced for routing to the job.
fn execute(
    shared: &Shared,
    worker: usize,
    round: &PoolRound,
    j: usize,
    speculative: bool,
) -> SlotDone {
    let executors = shared.executors.len();
    let (t, a, home) = round.slots[j];
    let e = &mut *lock(&shared.executors[worker]);
    e.trace.set_job(round.job);
    if round.tenant.is_some() {
        e.cache.set_tenant_ctx(round.tenant);
        e.cache.set_job_ctx(Some(round.job));
    }
    let trace_mark = e.trace.len();
    let sim = e.sim_now();
    let spec = round.spec.as_ref();
    if let Some(s) = spec.filter(|_| speculative) {
        let primary = s.runner[j].load(Ordering::Relaxed);
        e.trace.task_speculative(&round.stage, (t, a), primary, sim);
    } else if home % executors != worker {
        e.trace.task_steal(&round.stage, (t, a), home, sim);
    }
    let (lane, poisoned) = match &round.lanes {
        Lanes::Physical => (worker, e.is_poisoned()),
        // Stolen slots are fault-free by construction (the pin walk pins
        // every slot a crash dooms), so reading the home's *live* flag
        // from a thief would add an ExecutorLost that depends on when the
        // steal ran — a timing-dependent retry the serial reference never
        // sees.
        Lanes::Virtual(flags) => {
            (home, home % executors == worker && flags[home].load(Ordering::Relaxed))
        }
    };
    let cancel = match spec {
        Some(s) => &s.cancels[j][speculative as usize],
        None => round.cancel.as_deref().unwrap_or(&NEVER_CANCELLED),
    };
    let started = spec.map(|s| {
        let now = s.now_ns().max(1);
        if !speculative {
            s.runner[j].store(worker, Ordering::Relaxed);
            s.started[j].store(now, Ordering::Relaxed);
        }
        now
    });
    let site = Site {
        task: t,
        attempt: a,
        lane,
        executor: worker,
        executors,
        poisoned,
        speculative,
        cancel,
    };
    let done = (round.attempt)(e, &site);
    if let (Some(s), Some(started)) = (spec, started) {
        s.finish(j, started, !speculative as usize);
    }
    match &round.lanes {
        Lanes::Physical => {
            if done.died {
                e.poison();
            }
            // A crashed executor must not pull in work the wave scheduler
            // would never have handed it.
            if e.is_poisoned() {
                round.thieves[worker].store(false, Ordering::Relaxed);
            }
        }
        Lanes::Virtual(flags) => {
            if done.died {
                flags[home].store(true, Ordering::Relaxed);
            }
        }
    }
    let events = drain_events(e, trace_mark, worker);
    if round.tenant.is_some() {
        e.cache.set_job_ctx(None);
        e.cache.set_tenant_ctx(None);
    }
    e.trace.set_job(0);
    (done, events)
}

/// The events executor `worker` recorded since `mark`, attributed to it.
fn drain_events(e: &mut Executor, mark: usize, worker: usize) -> Vec<TraceEvent> {
    let mut events = e.trace.drain_from(mark);
    for ev in &mut events {
        ev.executor = ev.executor.or(Some(worker));
    }
    events
}

// ----------------------------------------------------------------------
// PoolJob: one job's view of the pool
// ----------------------------------------------------------------------

/// One job's slot source: its lanes on the pool, plus the job-scoped state
/// the pool side owns — the stop handle, the routed executor events, and
/// the job's record of what its attempts and restarts did. The stage
/// engine's `roll_up` reads that record for both ways of running a job;
/// executors keep no per-job state.
pub(crate) struct PoolJob {
    shared: Arc<Shared>,
    pub job: u64,
    tenant: Option<u32>,
    lanes: Lanes,
    stop: Option<Stop>,
    /// Executor-side events of the job's attempts and restarts, drained as
    /// they happen and job-stamped.
    pub events: Vec<TraceEvent>,
    /// Every task run's metrics and work summed, the counts of every
    /// restart's work, and the cache bytes as last sealed.
    pub metrics: JobMetrics,
    /// Cumulative busy time per lane.
    pub busy: Vec<Duration>,
    /// The slowest physical run so far (Figure 11 reports it).
    pub slowest: Option<TaskMetrics>,
}

impl PoolJob {
    pub fn lanes(&self) -> usize {
        self.busy.len()
    }

    /// Executor 0's mode (a pool is homogeneous in mode).
    pub fn mode(&self) -> ExecutionMode {
        lock(&self.shared.executors[0]).mode()
    }

    /// Why the job must stop scheduling (cancelled, past its deadline). A
    /// tripped deadline raises the cancel flag so in-flight attempts fail
    /// fast too.
    pub fn stop_reason(&mut self) -> Option<String> {
        let stop = self.stop.as_ref()?;
        if let Some(d) = stop.deadline.filter(|d| stop.submitted.elapsed() >= *d) {
            stop.cancel.store(true, Ordering::Relaxed);
            return Some(format!("deadline {d:?} exceeded"));
        }
        stop.cancel.load(Ordering::Relaxed).then(|| "cancelled via JobHandle::cancel".to_string())
    }

    pub fn is_poisoned(&self, lane: usize) -> bool {
        match &self.lanes {
            Lanes::Physical => lock(&self.shared.executors[lane]).is_poisoned(),
            Lanes::Virtual(flags) => flags[lane].load(Ordering::Relaxed),
        }
    }

    /// Restart a dead lane in place (`ordinal` restarts preceded this
    /// one). Returns the `(blocks, bytes)` rehydrated from its spill
    /// manifest; a lane that dies again mid-recovery stays poisoned. A
    /// virtual lane's shared executor never died, so its restart only
    /// clears the job's flag and rehydrates nothing.
    pub fn restart(&mut self, lane: usize, stage: &str, ordinal: u32) -> (u64, u64) {
        match &self.lanes {
            Lanes::Physical => {
                let mut e = lock(&self.shared.executors[lane]);
                let mark = e.trace.len();
                let before = e.work();
                let out = e.restart_in_place(stage, ordinal);
                if out.killed {
                    e.poison();
                }
                self.metrics.add_counts(&e.work().since(&before));
                self.events.extend(drain_events(&mut e, mark, lane));
                (out.rehydrated.len() as u64, out.rehydrated.iter().map(|r| r.1).sum())
            }
            Lanes::Virtual(flags) => {
                flags[lane].store(false, Ordering::Relaxed);
                (0, 0)
            }
        }
    }

    /// Publish `round` to the board, wait until every copy of every slot
    /// has run, retire it, and hand back one record per physical attempt.
    pub fn run_round(&mut self, round: Round<'_>) -> Vec<AttemptDone> {
        let executors = self.shared.executors.len();
        let thieves = (0..executors)
            .map(|w| {
                let thief = match self.lanes {
                    Lanes::Physical => {
                        !round.benched[w] && !lock(&self.shared.executors[w]).is_poisoned()
                    }
                    Lanes::Virtual(_) => true,
                };
                AtomicBool::new(thief)
            })
            .collect();
        // SAFETY: the attempt body outlives every use — the round is fully
        // executed (every launched copy deposited) and retired from the
        // board before this frame returns, and no code between publishing
        // it and retiring it can panic out of the frame.
        let attempt: &'static AttemptFn<'static> =
            unsafe { std::mem::transmute::<&AttemptFn<'_>, _>(round.attempt) };
        let n = round.slots.len();
        let published = Arc::new(PoolRound {
            job: self.job,
            tenant: self.tenant,
            lanes: self.lanes.clone(),
            stage: round.stage.to_string(),
            slots: round.slots,
            pinned: round.pinned,
            claimed: (0..n).map(|_| AtomicBool::new(false)).collect(),
            running: AtomicUsize::new(0),
            thieves,
            cancel: self.stop.as_ref().map(|s| s.cancel.clone()),
            spec: round.speculate.then(|| SpecRound::new(n)),
            attempt,
            state: Mutex::new(RoundState {
                done: Vec::with_capacity(n),
                primaries_left: n,
                duplicates_running: 0,
            }),
            done_cv: Condvar::new(),
        });
        lock(&self.shared.board).rounds.push(published.clone());
        self.shared.work_cv.notify_all();
        let done = {
            let mut st = lock(&published.state);
            while st.primaries_left > 0 || st.duplicates_running > 0 {
                st = published.done_cv.wait(st).unwrap_or_else(|p| p.into_inner());
            }
            std::mem::take(&mut st.done)
        };
        lock(&self.shared.board).rounds.retain(|r| !Arc::ptr_eq(r, &published));

        let mut attempts = Vec::with_capacity(done.len());
        for (d, events) in done {
            for tm in &d.task_metrics {
                self.metrics.add_task(tm);
                self.busy[d.lane] += tm.total();
                if self.slowest.as_ref().is_none_or(|s| tm.total() >= s.total()) {
                    self.slowest = Some(tm.clone());
                }
            }
            self.events.extend(events);
            attempts.push(d);
        }
        attempts
    }

    /// Return a consumed shuffle payload's storage to the `i`-th
    /// (round-robin) executor's arena.
    pub fn recycle_payload(&mut self, i: usize, payload: ShufflePayload) {
        let n = self.shared.executors.len();
        lock(&self.shared.executors[i % n]).recycle_payload(payload);
    }

    /// The job's cached bytes across the executors, `[resident, on
    /// disk]`: the blocks stamped with the job (a session's with job 0).
    pub fn cache_bytes(&self) -> [usize; 2] {
        self.shared.executors.iter().fold([0, 0], |[r, d], m| {
            let [er, ed] = lock(m).cache.job_bytes(self.job);
            [r + er, d + ed]
        })
    }

    /// Seal the job's cache bytes into its record, at the job's end.
    pub fn seal_cache(&mut self) {
        [self.metrics.cache_bytes, self.metrics.swapped_cache_bytes] = self.cache_bytes();
    }
}
