//! The structured run trace: typed events recorded per executor, merged
//! deterministically, exported as Chrome trace-event JSON and a flat run
//! manifest.
//!
//! The paper's evidence is observability artifacts — the lifetime
//! timelines of Figures 8(a)/9(a), the GC-ratio rows of Table 3, the
//! per-task bars of Figure 11. This module turns a run into the same kind
//! of artifact: every stage, task attempt, collection pause, spill,
//! retry, quarantine, restart, OOM recovery, and lifetime-based page-group
//! release becomes a [`TraceEvent`] with both **wall** and **simulated**
//! timestamps.
//!
//! ## Clocks
//!
//! Every event carries two timelines:
//!
//! * `wall_ns`/`dur_ns` — measured monotonic time. Task attempts and
//!   driver events are relative to their recorder's epoch; GC pauses use
//!   the heap's own epoch (the clock [`crate::Timeline`] samples against),
//!   so the trace aligns with the lifetime figures.
//! * `sim_ns`/`sim_dur_ns` — the simulated job clock: attributed task
//!   time (the sum of the [`crate::TaskMetrics`] buckets, which includes
//!   modelled spill I/O and backoff that is accounted, never slept).
//!
//! Wall values vary run to run; the *event structure* — which events, in
//! which logical order — is deterministic for a deterministic job, which
//! is why [`RunTrace::from_events`] orders by logical position (stage, task,
//! attempt, kind, executor, sequence), not by timestamp.
//!
//! ## Exporters
//!
//! [`RunTrace::to_chrome_string`] emits the Chrome trace-event format
//! (`{"traceEvents": [...]}` with `ph: "X"` complete events), loadable in
//! `chrome://tracing` or Perfetto: one row per executor plus a driver
//! row. Exact nanosecond fields ride in each event's `args`, so
//! [`RunTrace::from_chrome_string`] round-trips losslessly even though
//! the `ts`/`dur` fields are microseconds. [`RunTrace::to_manifest_string`]
//! emits a flat run-manifest JSON with per-stage roll-ups — a diffable
//! record of the run.

use std::time::{Duration, Instant};

use deca_check::json::Json;
use deca_core::{HandoverEvent, ReleaseEvent};
use deca_heap::GcEvent;

use crate::metrics::{StageMetrics, TaskMetrics};

/// The typed event vocabulary of a run.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum TraceEventKind {
    /// A stage began (driver event; `count` = task count).
    StageStart,
    /// A stage finished or failed (driver event; `count` = attempts).
    StageEnd,
    /// One physical task run (including OOM in-place re-runs).
    TaskAttempt,
    /// The pull scheduler let an executor claim a task outside its
    /// `t % E` affinity set (`count` = the task's home executor; the
    /// event's `executor` is the thief). Wave scheduling never emits
    /// this.
    TaskSteal,
    /// One stop-the-world collection pause attributed to the enclosing
    /// attempt (`count` = objects traced, `bytes` = live bytes after).
    GcPause,
    /// Spill/swap I/O performed by the enclosing attempt (`bytes` moved;
    /// `dur` is the modelled disk time).
    SpillIo,
    /// The driver rescheduled a failed attempt onto another executor
    /// (`executor` = where it failed, `count` = destination executor).
    Retry,
    /// An executor was quarantined (blacklisted).
    Quarantine,
    /// The last healthy executor was restarted in place.
    Restart,
    /// A cold cache block survived restart-in-place: verified against the
    /// spill manifest and kept, instead of being recomputed from lineage
    /// (`bytes` = on-disk payload size, `count` = cached records).
    CacheRehydrate,
    /// An OOM-classified failure absorbed by spill-and-re-run.
    OomRecovery,
    /// A page group released by its owner — lifetime-based release
    /// (`count` = pages, `bytes` = footprint returned).
    PageGroupRelease,
    /// A shuffle run's page ownership moved to a reducer without a byte
    /// copy — the zero-copy exchange hand-over (`count` = pages moved,
    /// `bytes` = payload carried).
    PageHandover,
    /// The watchdog launched a speculative duplicate of a slow attempt
    /// (`executor` = where the duplicate runs, `count` = the primary
    /// copy's home executor). Only the pull scheduler emits this.
    TaskSpeculative,
    /// The watchdog failed an attempt that exceeded its `task_deadline`
    /// budget (`sim_dur_ns` = the charged deadline budget).
    TaskTimeout,
    /// A job was cancelled — `JobHandle::cancel()` or its `JobSpec`
    /// deadline expiring (driver event; the label carries the reason).
    JobCancelled,
}

impl TraceEventKind {
    /// Stable kebab-case name (the Chrome `cat` field and manifest key).
    pub fn name(self) -> &'static str {
        match self {
            TraceEventKind::StageStart => "stage-start",
            TraceEventKind::StageEnd => "stage-end",
            TraceEventKind::TaskAttempt => "task-attempt",
            TraceEventKind::TaskSteal => "task-steal",
            TraceEventKind::GcPause => "gc-pause",
            TraceEventKind::SpillIo => "spill-io",
            TraceEventKind::Retry => "retry",
            TraceEventKind::Quarantine => "quarantine",
            TraceEventKind::Restart => "restart",
            TraceEventKind::CacheRehydrate => "cache-rehydrate",
            TraceEventKind::OomRecovery => "oom-recovery",
            TraceEventKind::PageGroupRelease => "page-group-release",
            TraceEventKind::PageHandover => "page-handover",
            TraceEventKind::TaskSpeculative => "task-speculative",
            TraceEventKind::TaskTimeout => "task-timeout",
            TraceEventKind::JobCancelled => "job-cancelled",
        }
    }

    /// Parse the stable name back (exporter round-trip).
    pub fn from_name(name: &str) -> Option<TraceEventKind> {
        TraceEventKind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub const ALL: [TraceEventKind; 16] = [
        TraceEventKind::StageStart,
        TraceEventKind::StageEnd,
        TraceEventKind::TaskAttempt,
        TraceEventKind::TaskSteal,
        TraceEventKind::GcPause,
        TraceEventKind::SpillIo,
        TraceEventKind::Retry,
        TraceEventKind::Quarantine,
        TraceEventKind::Restart,
        TraceEventKind::CacheRehydrate,
        TraceEventKind::OomRecovery,
        TraceEventKind::PageGroupRelease,
        TraceEventKind::PageHandover,
        TraceEventKind::TaskSpeculative,
        TraceEventKind::TaskTimeout,
        TraceEventKind::JobCancelled,
    ];

    /// Merge-order rank *within* one (stage, task, attempt) cell: the
    /// claim decision, the attempt itself, then what happened inside it,
    /// then the driver's reaction to it.
    fn rank(self) -> u8 {
        match self {
            TraceEventKind::StageStart => 0,
            TraceEventKind::TaskSteal => 1,
            // A speculative launch is a claim decision like a steal: it
            // sorts before the attempt bodies of its (task, attempt) cell.
            TraceEventKind::TaskSpeculative => 2,
            TraceEventKind::TaskAttempt => 3,
            TraceEventKind::GcPause => 4,
            TraceEventKind::SpillIo => 5,
            TraceEventKind::PageGroupRelease => 6,
            // The hand-over happens at the end of the map attempt, after
            // any releases the attempt performed.
            TraceEventKind::PageHandover => 7,
            TraceEventKind::OomRecovery => 8,
            // The watchdog's verdict on the attempt precedes the driver's
            // retry reaction to it.
            TraceEventKind::TaskTimeout => 9,
            TraceEventKind::Retry => 10,
            TraceEventKind::Quarantine => 11,
            TraceEventKind::Restart => 12,
            // Rehydration is part of the restart, so it sorts right after
            // the Restart marker it belongs to.
            TraceEventKind::CacheRehydrate => 13,
            TraceEventKind::JobCancelled => 14,
            TraceEventKind::StageEnd => 15,
        }
    }
}

impl std::fmt::Display for TraceEventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded event. `bytes`/`count` are kind-specific payloads (see
/// [`TraceEventKind`]); unused fields are zero.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    pub kind: TraceEventKind,
    /// The job this event belongs to. Single-job drivers leave it 0; the
    /// multi-job server stamps every event with its job id so merged
    /// traces stay separable per job.
    pub job: u64,
    /// The stage this event belongs to (driver-lifecycle events use the
    /// stage they wrap).
    pub stage: String,
    /// Task index within the stage; `None` for stage- or executor-scoped
    /// events (StageStart/End, Quarantine, Restart).
    pub task: Option<usize>,
    /// Scheduling attempt the event belongs to (0 on the first run).
    pub attempt: u32,
    /// The executor involved; `None` for driver-scoped events.
    pub executor: Option<usize>,
    /// Display label (the Chrome `name` field), e.g. `"wc-map-3"`.
    pub label: String,
    /// Wall-clock start, ns since the recorder's epoch (heap epoch for
    /// GC pauses; see the module docs).
    pub wall_ns: u64,
    /// Wall-clock duration, ns (0 for instantaneous events).
    pub dur_ns: u64,
    /// Simulated-clock start, ns.
    pub sim_ns: u64,
    /// Simulated duration, ns.
    pub sim_dur_ns: u64,
    /// Kind-specific byte payload.
    pub bytes: u64,
    /// Kind-specific count payload.
    pub count: u64,
    /// Per-recorder sequence number (the final deterministic tiebreak).
    pub seq: u64,
}

impl TraceEvent {
    /// The deterministic merge key: logical position in the job, never a
    /// wall timestamp. `stage_rank` is the stage's first-execution index,
    /// supplied by the merger. Within a stage, the start marker sorts
    /// first and the end marker last; everything else groups by task.
    fn sort_key(&self, stage_rank: usize) -> (usize, u8, usize, u32, u8, usize, u64) {
        let phase = match self.kind {
            TraceEventKind::StageStart => 0,
            TraceEventKind::StageEnd => 2,
            _ => 1,
        };
        (
            stage_rank,
            phase,
            self.task.unwrap_or(usize::MAX),
            self.attempt,
            self.kind.rank(),
            self.executor.map_or(usize::MAX, |x| x),
            self.seq,
        )
    }
}

/// Per-recorder event sink. One lives in each executor (the worker holding
/// it is the only writer) and one in the driver; the pool drains each
/// attempt's executor events to its job, and [`RunTrace::from_events`]
/// orders the driver's and the job's events into one trace.
#[derive(Debug)]
pub struct TraceRecorder {
    enabled: bool,
    epoch: Instant,
    events: Vec<TraceEvent>,
    seq: u64,
    /// Job id stamped on every recorded event (0 for single-job drivers;
    /// the server sets it per attempt).
    job: u64,
    /// Context the enclosing scheduled attempt sets so nested events
    /// (GC pauses, spills, releases) inherit their (stage, task, attempt).
    ctx: Option<(String, usize, u32)>,
}

impl TraceRecorder {
    pub fn new(enabled: bool) -> TraceRecorder {
        TraceRecorder {
            enabled,
            epoch: Instant::now(),
            events: Vec::new(),
            seq: 0,
            job: 0,
            ctx: None,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Set the job id stamped on events recorded from here on.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    pub fn job(&self) -> u64 {
        self.job
    }

    /// Nanoseconds since this recorder's epoch (saturating at u64::MAX,
    /// i.e. after ~584 years).
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Set the attempt context nested events record under.
    pub fn set_context(&mut self, stage: &str, task: usize, attempt: u32) {
        self.ctx = Some((stage.to_string(), task, attempt));
    }

    pub fn clear_context(&mut self) {
        self.ctx = None;
    }

    /// Record one event; `stage`/`task`/`attempt` default from the
    /// current context when `None`. `executor` is for driver-side
    /// recorders attributing an event to a specific executor — executor
    /// recorders pass `None` and the merge fills their index in. A
    /// disabled recorder drops everything.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        kind: TraceEventKind,
        stage: Option<&str>,
        task: Option<usize>,
        attempt: Option<u32>,
        executor: Option<usize>,
        label: impl Into<String>,
        wall_ns: u64,
        dur_ns: u64,
        sim_ns: u64,
        sim_dur_ns: u64,
        bytes: u64,
        count: u64,
    ) {
        if !self.enabled {
            return;
        }
        let (ctx_stage, ctx_task, ctx_attempt) = match &self.ctx {
            Some((s, t, a)) => (Some(s.as_str()), Some(*t), Some(*a)),
            None => (None, None, None),
        };
        let seq = self.seq;
        self.seq += 1;
        self.events.push(TraceEvent {
            kind,
            job: self.job,
            stage: stage.or(ctx_stage).unwrap_or("").to_string(),
            task: task.or(ctx_task),
            attempt: attempt.or(ctx_attempt).unwrap_or(0),
            executor,
            label: label.into(),
            wall_ns,
            dur_ns,
            sim_ns,
            sim_dur_ns,
            bytes,
            count,
            seq,
        });
    }

    /// An instantaneous event stamped "now" — the shape of every
    /// scheduling decision below. The label is only formatted when the
    /// recorder is enabled.
    #[allow(clippy::too_many_arguments)]
    fn instant(
        &mut self,
        kind: TraceEventKind,
        stage: Option<&str>,
        slot: Option<(usize, u32)>,
        executor: Option<usize>,
        label: std::fmt::Arguments<'_>,
        sim_now: Duration,
        sim_dur: Duration,
        count: u64,
    ) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let (task, attempt) = (slot.map(|s| s.0), slot.map(|s| s.1));
        let (sim, dur) = (dur_ns(sim_now), dur_ns(sim_dur));
        self.record(
            kind,
            stage,
            task,
            attempt,
            executor,
            label.to_string(),
            now,
            0,
            sim,
            dur,
            0,
            count,
        );
    }

    /// A stage of `tasks` tasks began; returns its wall start for the
    /// matching [`TraceRecorder::stage_end`].
    pub fn stage_start(&mut self, stage: &str, sim_now: Duration, tasks: usize) -> u64 {
        let start = self.now_ns();
        let sim = dur_ns(sim_now);
        self.record(
            TraceEventKind::StageStart,
            Some(stage),
            None,
            None,
            None,
            stage,
            start,
            0,
            sim,
            0,
            0,
            tasks as u64,
        );
        start
    }

    /// `stage` finished or failed: its simulated duration is the critical
    /// path plus recovery time, its count the physical task runs.
    pub fn stage_end(&mut self, stage: &StageMetrics, wall_start: u64, sim_start: Duration) {
        let now = self.now_ns();
        self.record(
            TraceEventKind::StageEnd,
            Some(&stage.name),
            None,
            None,
            None,
            stage.name.as_str(),
            now,
            now.saturating_sub(wall_start),
            dur_ns(sim_start),
            dur_ns(stage.exec + stage.recovery),
            stage.shuffle_bytes,
            stage.attempts,
        );
    }

    /// Attempt `slot` failed on executor `from` and was rescheduled onto
    /// `to`, charging `backoff` of simulated time.
    pub fn retry(
        &mut self,
        stage: &str,
        slot: (usize, u32),
        from: usize,
        to: usize,
        sim_now: Duration,
        backoff: Duration,
    ) {
        let label = format_args!("{stage}-{}-retry", slot.0);
        let kind = TraceEventKind::Retry;
        self.instant(kind, Some(stage), Some(slot), Some(from), label, sim_now, backoff, to as u64);
    }

    pub fn quarantine(&mut self, stage: &str, executor: usize, sim_now: Duration) {
        let label = format_args!("quarantine-executor-{executor}");
        let kind = TraceEventKind::Quarantine;
        self.instant(kind, Some(stage), None, Some(executor), label, sim_now, Duration::ZERO, 0);
    }

    pub fn restart(&mut self, stage: &str, executor: usize, sim_now: Duration, backoff: Duration) {
        let label = format_args!("restart-executor-{executor}");
        let kind = TraceEventKind::Restart;
        self.instant(kind, Some(stage), None, Some(executor), label, sim_now, backoff, 0);
    }

    /// An OOM-classified failure of `slot` on `executor` was absorbed by
    /// spill-and-re-run.
    pub fn oom_recovery(
        &mut self,
        stage: &str,
        slot: (usize, u32),
        executor: usize,
        sim_now: Duration,
    ) {
        let label = format_args!("{stage}-{}-oom", slot.0);
        let kind = TraceEventKind::OomRecovery;
        self.instant(
            kind,
            Some(stage),
            Some(slot),
            Some(executor),
            label,
            sim_now,
            Duration::ZERO,
            0,
        );
    }

    /// The watchdog failed `slot` on `executor` after it burned `budget`.
    pub fn task_timeout(
        &mut self,
        stage: &str,
        slot: (usize, u32),
        executor: usize,
        sim_now: Duration,
        budget: Duration,
    ) {
        let label = format_args!("{stage}-{}-timeout", slot.0);
        let kind = TraceEventKind::TaskTimeout;
        self.instant(kind, Some(stage), Some(slot), Some(executor), label, sim_now, budget, 0);
    }

    /// This recorder's executor claimed `slot` away from executor `home`.
    pub fn task_steal(&mut self, stage: &str, slot: (usize, u32), home: usize, sim_now: Duration) {
        let label = format_args!("{stage}-{}-steal", slot.0);
        let kind = TraceEventKind::TaskSteal;
        self.instant(
            kind,
            Some(stage),
            Some(slot),
            None,
            label,
            sim_now,
            Duration::ZERO,
            home as u64,
        );
    }

    /// This recorder's executor launched a duplicate of `slot`, whose
    /// primary copy runs on executor `primary`.
    pub fn task_speculative(
        &mut self,
        stage: &str,
        slot: (usize, u32),
        primary: usize,
        sim_now: Duration,
    ) {
        let label = format_args!("{stage}-{}-speculative", slot.0);
        let kind = TraceEventKind::TaskSpeculative;
        let count = primary as u64;
        self.instant(kind, Some(stage), Some(slot), None, label, sim_now, Duration::ZERO, count);
    }

    /// A task ran for `wall` from `wall_ns`: its simulated duration, from
    /// `sim_ns`, is its attributed time. The events below happened inside
    /// a task and carry its start times.
    pub fn task_attempt(&mut self, t: &TaskMetrics, wall: Duration, wall_ns: u64, sim_ns: u64) {
        let (kind, name) = (TraceEventKind::TaskAttempt, t.name.as_str());
        let (dur, sim_dur) = (dur_ns(wall), dur_ns(t.total()));
        self.record(kind, None, None, None, None, name, wall_ns, dur, sim_ns, sim_dur, 0, 0);
    }

    /// A collection the task triggered, at the heap-epoch time it began.
    pub fn gc_pause(&mut self, ev: &GcEvent, sim_ns: u64) {
        let (kind, label) = (TraceEventKind::GcPause, format!("gc-{}", ev.kind.name()));
        let (at, dur) = (dur_ns(ev.at), dur_ns(ev.duration));
        let (live, traced) = (ev.live_bytes_after as u64, ev.objects_traced);
        self.record(kind, None, None, None, None, label, at, dur, sim_ns, dur, live, traced);
    }

    /// The task moved `bytes` to or from disk, modelled as taking `io`.
    pub fn spill_io(&mut self, bytes: u64, io: Duration, wall_ns: u64, sim_ns: u64) {
        let (kind, io) = (TraceEventKind::SpillIo, dur_ns(io));
        self.record(kind, None, None, None, None, "spill", wall_ns, io, sim_ns, io, bytes, 0);
    }

    /// A page group's lifetime ended and its pages went back to the heap.
    pub fn page_release(&mut self, r: &ReleaseEvent, wall_ns: u64, sim_ns: u64) {
        let (kind, label) = (TraceEventKind::PageGroupRelease, format!("group-{}", r.group));
        let (bytes, pages) = (r.bytes as u64, r.pages as u64);
        self.record(kind, None, None, None, None, label, wall_ns, 0, sim_ns, 0, bytes, pages);
    }

    /// Map-output pages passed to the exchange without a copy.
    pub fn page_handover(&mut self, h: &HandoverEvent, wall_ns: u64, sim_ns: u64) {
        let (kind, bytes, pages) = (TraceEventKind::PageHandover, h.bytes as u64, h.pages as u64);
        self.record(kind, None, None, None, None, "handover", wall_ns, 0, sim_ns, 0, bytes, pages);
    }

    /// A restart in `stage` rehydrated a cache block from its spill file:
    /// `b` is its id, the bytes read back and the records they hold.
    pub fn cache_rehydrate(&mut self, stage: &str, b: (u32, u64, u64), wall_ns: u64, sim_ns: u64) {
        let ((block, bytes, records), kind) = (b, TraceEventKind::CacheRehydrate);
        let (stage, label) = (Some(stage), format!("block-{block}"));
        self.record(kind, stage, None, None, None, label, wall_ns, 0, sim_ns, 0, bytes, records);
    }

    /// The job was cancelled; the label carries the reason.
    pub fn job_cancelled(&mut self, reason: &str, sim_now: Duration) {
        let kind = TraceEventKind::JobCancelled;
        self.instant(kind, None, None, None, format_args!("{reason}"), sim_now, Duration::ZERO, 0);
    }

    /// Events recorded so far (merge input; also handy in tests).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Split off every event from index `mark` onwards (the server drains
    /// the delta an attempt recorded and routes it to that attempt's job).
    pub fn drain_from(&mut self, mark: usize) -> Vec<TraceEvent> {
        if mark >= self.events.len() {
            Vec::new()
        } else {
            self.events.split_off(mark)
        }
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// The merged, deterministically ordered trace of one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunTrace {
    pub events: Vec<TraceEvent>,
}

impl RunTrace {
    /// Order a job's driver events, then its executor-attributed events,
    /// into one trace. Order is logical — (stage first-run rank, task,
    /// attempt, kind, executor, seq) — so two runs of the same
    /// deterministic job merge to the same event sequence even though wall
    /// timestamps differ. Stage rank is encounter order in `events`, which
    /// is why the driver's events come first.
    pub fn from_events(mut events: Vec<TraceEvent>) -> RunTrace {
        // Stage rank = order of first StageStart (driver events come
        // first above, so ranks are driver-defined); stages only ever
        // seen from executor events rank after, in encounter order.
        let mut order: Vec<String> = Vec::new();
        for ev in &events {
            if !order.iter().any(|s| s == &ev.stage) {
                order.push(ev.stage.clone());
            }
        }
        let rank = |stage: &str| order.iter().position(|s| s == stage).unwrap_or(usize::MAX);
        events.sort_by(|a, b| a.sort_key(rank(&a.stage)).cmp(&b.sort_key(rank(&b.stage))));
        RunTrace { events }
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events of one kind, in merged order.
    pub fn of_kind(&self, kind: TraceEventKind) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Events of one job, in merged order (the server's merged trace
    /// interleaves jobs; per-job views must not bleed into each other).
    pub fn of_job(&self, job: u64) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.job == job)
    }

    /// Distinct job ids present, ascending.
    pub fn jobs(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.events.iter().map(|e| e.job).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    // ------------------------------------------------------------------
    // Chrome trace-event export
    // ------------------------------------------------------------------

    /// The trace as a Chrome trace-event JSON document: `ph: "X"`
    /// complete events on one row (`tid`) per executor, with the driver
    /// on `tid` 0 and executor `i` on `tid` `i + 1`. `ts`/`dur` are
    /// microseconds (the format's unit); the exact nanosecond fields ride
    /// in `args` so parsing back is lossless.
    pub fn to_chrome_json(&self) -> Json {
        let trace_events: Vec<Json> = self
            .events
            .iter()
            .map(|e| {
                let mut args = vec![
                    ("kind".to_string(), Json::str(e.kind.name())),
                    ("job".to_string(), Json::int(e.job)),
                    ("stage".to_string(), Json::str(&e.stage)),
                ];
                if let Some(t) = e.task {
                    args.push(("task".to_string(), Json::int(t as u64)));
                }
                args.push(("attempt".to_string(), Json::int(e.attempt as u64)));
                for (k, v) in [
                    ("wall_ns", e.wall_ns),
                    ("dur_ns", e.dur_ns),
                    ("sim_ns", e.sim_ns),
                    ("sim_dur_ns", e.sim_dur_ns),
                    ("bytes", e.bytes),
                    ("count", e.count),
                    ("seq", e.seq),
                ] {
                    args.push((k.to_string(), Json::int(v)));
                }
                Json::obj(vec![
                    ("name", Json::str(&e.label)),
                    ("cat", Json::str(e.kind.name())),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(e.wall_ns as f64 / 1_000.0)),
                    ("dur", Json::Num(e.dur_ns as f64 / 1_000.0)),
                    ("pid", Json::int(1)),
                    ("tid", Json::int(e.executor.map_or(0, |x| x as u64 + 1))),
                    ("args", Json::Obj(args)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("traceEvents", Json::Arr(trace_events)),
            ("displayTimeUnit", Json::str("ms")),
            ("otherData", Json::obj(vec![("schema", Json::str("deca-run-trace-v1"))])),
        ])
    }

    pub fn to_chrome_string(&self) -> String {
        self.to_chrome_json().to_pretty()
    }

    /// Parse a Chrome trace-event document emitted by
    /// [`RunTrace::to_chrome_json`] back into a trace. Rebuilds every
    /// field from `args` (lossless); fails on documents this exporter did
    /// not produce.
    pub fn from_chrome_string(text: &str) -> Result<RunTrace, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let list =
            doc.get("traceEvents").and_then(|v| v.as_array()).ok_or("missing traceEvents array")?;
        let mut events = Vec::with_capacity(list.len());
        for (i, ev) in list.iter().enumerate() {
            let args = ev.get("args").ok_or_else(|| format!("event {i}: missing args"))?;
            let field = |k: &str| {
                args.get(k)
                    .and_then(|v| v.as_u64())
                    .ok_or_else(|| format!("event {i}: missing integer arg {k:?}"))
            };
            let kind = args
                .get("kind")
                .and_then(|v| v.as_str())
                .and_then(TraceEventKind::from_name)
                .ok_or_else(|| format!("event {i}: unknown kind"))?;
            let tid =
                ev.get("tid").and_then(|v| v.as_u64()).ok_or_else(|| format!("event {i}: tid"))?;
            events.push(TraceEvent {
                kind,
                // Traces predating the job field parse with job 0.
                job: args.get("job").and_then(|v| v.as_u64()).unwrap_or(0),
                stage: args
                    .get("stage")
                    .and_then(|v| v.as_str())
                    .ok_or_else(|| format!("event {i}: stage"))?
                    .to_string(),
                task: args.get("task").and_then(|v| v.as_u64()).map(|t| t as usize),
                attempt: field("attempt")? as u32,
                executor: if tid == 0 { None } else { Some(tid as usize - 1) },
                label: ev
                    .get("name")
                    .and_then(|v| v.as_str())
                    .ok_or_else(|| format!("event {i}: name"))?
                    .to_string(),
                wall_ns: field("wall_ns")?,
                dur_ns: field("dur_ns")?,
                sim_ns: field("sim_ns")?,
                sim_dur_ns: field("sim_dur_ns")?,
                bytes: field("bytes")?,
                count: field("count")?,
                seq: field("seq")?,
            });
        }
        Ok(RunTrace { events })
    }

    /// Structural validity for the Chrome UI: every event must carry the
    /// `name`/`ph`/`ts`/`pid`/`tid` fields the trace viewer requires.
    /// Returns the event count.
    pub fn validate_chrome_document(text: &str) -> Result<usize, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let list =
            doc.get("traceEvents").and_then(|v| v.as_array()).ok_or("missing traceEvents array")?;
        for (i, ev) in list.iter().enumerate() {
            if ev.get("name").and_then(|v| v.as_str()).is_none() {
                return Err(format!("event {i}: missing name"));
            }
            if ev.get("ph").and_then(|v| v.as_str()) != Some("X") {
                return Err(format!("event {i}: not a complete ('X') event"));
            }
            for k in ["ts", "dur", "pid", "tid"] {
                if ev.get(k).and_then(|v| v.as_f64()).is_none() {
                    return Err(format!("event {i}: missing numeric {k}"));
                }
            }
        }
        Ok(list.len())
    }

    // ------------------------------------------------------------------
    // run-manifest export
    // ------------------------------------------------------------------

    /// A flat run manifest: totals per event kind plus per-stage roll-ups
    /// (attempts, retries, GC pause time and traced objects, spill and
    /// release volumes). Stages appear in first-execution order.
    pub fn to_manifest_json(&self) -> Json {
        let mut stages: Vec<String> = Vec::new();
        for e in &self.events {
            if !e.stage.is_empty() && !stages.iter().any(|s| s == &e.stage) {
                stages.push(e.stage.clone());
            }
        }
        let count_of = |kind: TraceEventKind| -> u64 {
            self.events.iter().filter(|e| e.kind == kind).count() as u64
        };
        let stage_rows: Vec<Json> = stages
            .iter()
            .map(|name| {
                let evs: Vec<&TraceEvent> =
                    self.events.iter().filter(|e| &e.stage == name).collect();
                let of = |k: TraceEventKind| evs.iter().filter(|e| e.kind == k).collect::<Vec<_>>();
                let attempts = of(TraceEventKind::TaskAttempt);
                let gc = of(TraceEventKind::GcPause);
                let spills = of(TraceEventKind::SpillIo);
                let releases = of(TraceEventKind::PageGroupRelease);
                let handovers = of(TraceEventKind::PageHandover);
                Json::obj(vec![
                    ("name", Json::str(name.as_str())),
                    ("attempts", Json::int(attempts.len() as u64)),
                    (
                        "attempt_sim_ns",
                        Json::int(attempts.iter().map(|e| e.sim_dur_ns).sum::<u64>()),
                    ),
                    ("steals", Json::int(of(TraceEventKind::TaskSteal).len() as u64)),
                    ("speculative", Json::int(of(TraceEventKind::TaskSpeculative).len() as u64)),
                    ("timeouts", Json::int(of(TraceEventKind::TaskTimeout).len() as u64)),
                    ("retries", Json::int(of(TraceEventKind::Retry).len() as u64)),
                    ("quarantines", Json::int(of(TraceEventKind::Quarantine).len() as u64)),
                    ("restarts", Json::int(of(TraceEventKind::Restart).len() as u64)),
                    (
                        "rehydrated_blocks",
                        Json::int(of(TraceEventKind::CacheRehydrate).len() as u64),
                    ),
                    (
                        "rehydrated_bytes",
                        Json::int(
                            of(TraceEventKind::CacheRehydrate).iter().map(|e| e.bytes).sum::<u64>(),
                        ),
                    ),
                    ("oom_recoveries", Json::int(of(TraceEventKind::OomRecovery).len() as u64)),
                    ("gc_pauses", Json::int(gc.len() as u64)),
                    ("gc_pause_ns", Json::int(gc.iter().map(|e| e.dur_ns).sum::<u64>())),
                    ("objects_traced", Json::int(gc.iter().map(|e| e.count).sum::<u64>())),
                    ("spill_bytes", Json::int(spills.iter().map(|e| e.bytes).sum::<u64>())),
                    ("groups_released", Json::int(releases.len() as u64)),
                    ("released_bytes", Json::int(releases.iter().map(|e| e.bytes).sum::<u64>())),
                    ("pages_handed", Json::int(handovers.iter().map(|e| e.count).sum::<u64>())),
                    ("handover_bytes", Json::int(handovers.iter().map(|e| e.bytes).sum::<u64>())),
                ])
            })
            .collect();
        let totals: Vec<(String, Json)> = TraceEventKind::ALL
            .into_iter()
            .map(|k| (k.name().to_string(), Json::int(count_of(k))))
            .collect();
        Json::obj(vec![
            ("schema", Json::str("deca-run-manifest-v1")),
            ("events", Json::int(self.events.len() as u64)),
            ("event_counts", Json::Obj(totals)),
            ("stages", Json::Arr(stage_rows)),
        ])
    }

    pub fn to_manifest_string(&self) -> String {
        self.to_manifest_json().to_pretty()
    }
}

/// Convert a [`Duration`] to saturating nanoseconds (trace field unit).
pub fn dur_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The driver's events, then executor `i`'s attributed to `i` (as the
    /// pool routes them), ordered into one trace.
    fn merge(driver: &TraceRecorder, executors: &[&TraceRecorder]) -> RunTrace {
        let mut events = driver.events().to_vec();
        for (i, rec) in executors.iter().enumerate() {
            events.extend(
                rec.events()
                    .iter()
                    .map(|ev| TraceEvent { executor: ev.executor.or(Some(i)), ..ev.clone() }),
            );
        }
        RunTrace::from_events(events)
    }

    fn ev(kind: TraceEventKind, stage: &str, task: Option<usize>, seq: u64) -> TraceEvent {
        TraceEvent {
            kind,
            job: 0,
            stage: stage.to_string(),
            task,
            attempt: 0,
            executor: None,
            label: format!("{stage}-{task:?}"),
            wall_ns: seq * 100,
            dur_ns: 50,
            sim_ns: seq * 10,
            sim_dur_ns: 5,
            bytes: 7,
            count: 3,
            seq,
        }
    }

    fn sample_trace() -> RunTrace {
        let mut driver = TraceRecorder::new(true);
        driver.record(
            TraceEventKind::StageStart,
            Some("map"),
            None,
            None,
            None,
            "map",
            0,
            0,
            0,
            0,
            0,
            4,
        );
        driver.record(
            TraceEventKind::StageEnd,
            Some("map"),
            None,
            None,
            None,
            "map",
            900,
            0,
            90,
            0,
            0,
            5,
        );
        let mut e0 = TraceRecorder::new(true);
        e0.set_context("map", 0, 0);
        e0.record(
            TraceEventKind::TaskAttempt,
            None,
            None,
            None,
            None,
            "map-0",
            10,
            200,
            1,
            20,
            0,
            0,
        );
        e0.record(
            TraceEventKind::GcPause,
            None,
            None,
            None,
            None,
            "gc-minor",
            15,
            40,
            1,
            4,
            64,
            12,
        );
        e0.clear_context();
        let mut e1 = TraceRecorder::new(true);
        e1.set_context("map", 1, 0);
        e1.record(
            TraceEventKind::TaskAttempt,
            None,
            None,
            None,
            None,
            "map-1",
            12,
            210,
            1,
            21,
            0,
            0,
        );
        e1.record(
            TraceEventKind::PageGroupRelease,
            None,
            None,
            None,
            None,
            "group-3",
            100,
            0,
            9,
            0,
            4096,
            2,
        );
        e1.clear_context();
        merge(&driver, &[&e0, &e1])
    }

    #[test]
    fn disabled_recorder_drops_events() {
        let mut r = TraceRecorder::new(false);
        r.record(TraceEventKind::Retry, Some("s"), Some(0), Some(1), None, "r", 0, 0, 0, 0, 0, 0);
        assert!(r.is_empty());
        let mut on = TraceRecorder::new(true);
        on.record(TraceEventKind::Retry, Some("s"), Some(0), Some(1), None, "r", 0, 0, 0, 0, 0, 0);
        assert_eq!(on.len(), 1);
    }

    #[test]
    fn context_fills_nested_events() {
        let mut r = TraceRecorder::new(true);
        r.set_context("reduce", 3, 2);
        r.record(TraceEventKind::GcPause, None, None, None, None, "gc-full", 0, 9, 0, 9, 0, 100);
        r.clear_context();
        let e = &r.events()[0];
        assert_eq!((e.stage.as_str(), e.task, e.attempt), ("reduce", Some(3), 2));
    }

    #[test]
    fn merge_orders_logically_and_attributes_executors() {
        let t = sample_trace();
        let kinds: Vec<TraceEventKind> = t.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TraceEventKind::StageStart,
                TraceEventKind::TaskAttempt,
                TraceEventKind::GcPause,
                TraceEventKind::TaskAttempt,
                TraceEventKind::PageGroupRelease,
                TraceEventKind::StageEnd,
            ]
        );
        // Executor attribution by recorder position; driver stays None.
        assert_eq!(t.events[0].executor, None);
        assert_eq!(t.events[1].executor, Some(0));
        assert_eq!(t.events[3].executor, Some(1));
        // Merging the same recorders again yields the same order: the key
        // is logical position, not wall time.
        assert_eq!(t.of_kind(TraceEventKind::TaskAttempt).count(), 2);
    }

    #[test]
    fn merge_is_independent_of_wall_timestamps() {
        let make = |wall_scale: u64| {
            let driver = TraceRecorder::new(true);
            let mut e0 = TraceRecorder::new(true);
            for (task, seq) in [(1usize, 0u64), (0, 1)] {
                e0.set_context("s", task, 0);
                e0.record(
                    TraceEventKind::TaskAttempt,
                    None,
                    None,
                    None,
                    None,
                    format!("s-{task}"),
                    seq * wall_scale,
                    10,
                    0,
                    10,
                    0,
                    0,
                );
            }
            merge(&driver, &[&e0])
        };
        let a = make(1);
        let b = make(1_000_000);
        let order_a: Vec<Option<usize>> = a.events.iter().map(|e| e.task).collect();
        let order_b: Vec<Option<usize>> = b.events.iter().map(|e| e.task).collect();
        assert_eq!(order_a, order_b, "order must come from logical position");
        assert_eq!(order_a, vec![Some(0), Some(1)]);
    }

    #[test]
    fn chrome_export_roundtrips_losslessly() {
        let t = sample_trace();
        let text = t.to_chrome_string();
        assert_eq!(RunTrace::validate_chrome_document(&text), Ok(t.len()));
        let back = RunTrace::from_chrome_string(&text).unwrap();
        assert_eq!(back, t, "every field must survive the round-trip");
    }

    #[test]
    fn chrome_export_shape() {
        let t = sample_trace();
        let doc = t.to_chrome_json();
        let evs = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(evs.len(), 6);
        // Driver on tid 0, executors on tid i+1.
        assert_eq!(evs[0].get("tid").unwrap().as_u64(), Some(0));
        assert_eq!(evs[1].get("tid").unwrap().as_u64(), Some(1));
        assert_eq!(evs[3].get("tid").unwrap().as_u64(), Some(2));
        // ts is µs: the GC pause started at wall_ns 15 → 0.015 µs.
        let gc = &evs[2];
        assert_eq!(gc.get("cat").unwrap().as_str(), Some("gc-pause"));
        assert!((gc.get("ts").unwrap().as_f64().unwrap() - 0.015).abs() < 1e-12);
    }

    #[test]
    fn from_chrome_rejects_foreign_documents() {
        assert!(RunTrace::from_chrome_string("{}").is_err());
        assert!(RunTrace::from_chrome_string(r#"{"traceEvents":[{"ph":"X"}]}"#).is_err());
        assert!(RunTrace::validate_chrome_document(r#"{"traceEvents":[{"name":"x"}]}"#).is_err());
    }

    #[test]
    fn manifest_rolls_up_per_stage() {
        let t = sample_trace();
        let m = t.to_manifest_json();
        assert_eq!(m.get("schema").unwrap().as_str(), Some("deca-run-manifest-v1"));
        assert_eq!(m.get("events").unwrap().as_u64(), Some(6));
        let stages = m.get("stages").unwrap().as_array().unwrap();
        assert_eq!(stages.len(), 1);
        let map = &stages[0];
        assert_eq!(map.get("attempts").unwrap().as_u64(), Some(2));
        assert_eq!(map.get("gc_pauses").unwrap().as_u64(), Some(1));
        assert_eq!(map.get("objects_traced").unwrap().as_u64(), Some(12));
        assert_eq!(map.get("groups_released").unwrap().as_u64(), Some(1));
        assert_eq!(map.get("released_bytes").unwrap().as_u64(), Some(4096));
        // Manifest parses back as JSON (the gate reads it).
        assert!(deca_check::json::Json::parse(&t.to_manifest_string()).is_ok());
    }

    #[test]
    fn kind_names_roundtrip() {
        for k in TraceEventKind::ALL {
            assert_eq!(TraceEventKind::from_name(k.name()), Some(k));
        }
        assert_eq!(TraceEventKind::from_name("nope"), None);
    }

    #[test]
    fn sort_key_orders_stage_markers_around_tasks() {
        let start = ev(TraceEventKind::StageStart, "s", None, 9);
        let task = ev(TraceEventKind::TaskAttempt, "s", Some(0), 0);
        let end = ev(TraceEventKind::StageEnd, "s", None, 10);
        assert!(start.sort_key(0) < task.sort_key(0));
        assert!(task.sort_key(0) < end.sort_key(0));
    }
}
