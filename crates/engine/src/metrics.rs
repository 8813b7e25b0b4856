//! Metrics: an attempt's work record, task/job breakdowns, and the
//! lifetime timelines behind Figures 8(a)/9(a).

use std::time::Duration;

use deca_heap::GcStats;

use crate::executor::SIM_DISK_BPS;

/// What an executor has done, as cumulative counters: read by
/// [`crate::Executor::work`], and the work of one task run or restart is
/// the difference of two readings ([`Work::since`]). Every time bucket and
/// every count of a run comes from the same window, so a collection that
/// is counted is also timed, traced and attributed to the same run.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Work {
    /// Stop-the-world collection pauses.
    pub gc_pause: Duration,
    /// Concurrent-mark wall time (the marker thread racing the mutator).
    pub gc_concurrent: Duration,
    /// Kryo serialization time.
    pub ser: Duration,
    /// Kryo deserialization time.
    pub deser: Duration,
    /// Shuffle read and write time, outside the serializer's.
    pub shuffle_read: Duration,
    pub shuffle_write: Duration,
    /// Bytes written to and read from disk: the memory manager's page-group
    /// swaps plus the cache's block files, each byte counted by one of them.
    pub spill_bytes: u64,
    pub minor_gcs: u64,
    pub full_gcs: u64,
    /// Objects traced (copied or marked) by the collections.
    pub objects_traced: u64,
}

impl Work {
    /// The collector's rows of a heap's statistics (the other rows zero):
    /// pause time excludes the concurrent mark, which has its own row, and
    /// a concurrent cycle counts as one full collection, at its remark.
    pub(crate) fn of_gc(stats: &GcStats) -> Work {
        Work {
            gc_pause: stats.total_gc_time(),
            gc_concurrent: stats.concurrent_mark_time,
            minor_gcs: stats.minor_collections,
            full_gcs: stats.full_collections,
            objects_traced: stats.objects_traced,
            ..Work::default()
        }
    }

    /// The work done between the reading `before` and this one.
    pub fn since(&self, before: &Work) -> Work {
        Work {
            gc_pause: self.gc_pause - before.gc_pause,
            gc_concurrent: self.gc_concurrent - before.gc_concurrent,
            ser: self.ser - before.ser,
            deser: self.deser - before.deser,
            shuffle_read: self.shuffle_read - before.shuffle_read,
            shuffle_write: self.shuffle_write - before.shuffle_write,
            spill_bytes: self.spill_bytes - before.spill_bytes,
            minor_gcs: self.minor_gcs - before.minor_gcs,
            full_gcs: self.full_gcs - before.full_gcs,
            objects_traced: self.objects_traced - before.objects_traced,
        }
    }
}

/// Breakdown of one task run's wall time, matching Figure 11's bars,
/// built from the run's [`Work`].
#[derive(Clone, Debug, Default)]
pub struct TaskMetrics {
    pub name: String,
    /// Pure computation (wall minus the stop-the-world, serde and shuffle
    /// time of `work`).
    pub compute: Duration,
    /// Spill / swap file I/O, modelled from `work.spill_bytes`.
    pub io: Duration,
    /// What the run did. Its `gc_concurrent` is observability only: it is
    /// *not* part of [`TaskMetrics::total`], because the task did not stop
    /// for it.
    pub work: Work,
}

impl TaskMetrics {
    /// The breakdown of a run that took `wall` and did `work`.
    pub(crate) fn new(name: String, wall: Duration, work: Work) -> TaskMetrics {
        // Concurrent-mark overlap is *not* subtracted: the marker ran on
        // another thread while the task computed, so the task's wall clock
        // already reflects whatever CPU contention the race caused.
        let attributed =
            work.gc_pause + work.ser + work.deser + work.shuffle_read + work.shuffle_write;
        TaskMetrics {
            name,
            compute: wall.saturating_sub(attributed),
            io: Duration::from_secs_f64(work.spill_bytes as f64 / SIM_DISK_BPS),
            work,
        }
    }

    /// Total reported task time.
    pub fn total(&self) -> Duration {
        let w = &self.work;
        self.compute + w.gc_pause + w.ser + w.deser + w.shuffle_read + w.shuffle_write + self.io
    }
}

/// Aggregates over a whole job (or a whole run).
#[derive(Clone, Debug, Default)]
pub struct JobMetrics {
    /// Submission id of the job these aggregates belong to (0 for
    /// standalone sessions; the job service stamps its per-job roll-ups
    /// so multi-job metrics never alias).
    pub job: u64,
    pub exec: Duration,
    pub gc: Duration,
    /// Concurrent-mark overlap summed across tasks (not part of `exec`).
    pub gc_concurrent: Duration,
    pub ser: Duration,
    pub deser: Duration,
    pub shuffle_read: Duration,
    pub shuffle_write: Duration,
    pub io: Duration,
    /// Bytes held by the cache manager at job end.
    pub cache_bytes: usize,
    /// Bytes of cached data currently swapped to disk.
    pub swapped_cache_bytes: usize,
    pub minor_gcs: u64,
    pub full_gcs: u64,
    /// Objects the job's collections traced (the §2.2 pathology in one
    /// number — what the collector repeatedly walks).
    pub objects_traced: u64,
    /// Physical task runs across the job: `tasks + retries + oom_reruns`
    /// when every stage completes.
    pub attempts: u64,
    /// Task re-runs the retry machinery performed.
    pub retries: u64,
    /// Executors quarantined (blacklisted) during the job.
    pub quarantines: u64,
    /// Executors restarted in place (the spare-last-executor path).
    pub restarts: u64,
    /// In-place re-runs performed by graceful OOM degradation (each is a
    /// physical run counted in `attempts`, never a `retries` entry).
    pub oom_reruns: u64,
    /// OOM-classified failures absorbed by spill-and-retry degradation
    /// (`oom_reruns` that succeeded).
    pub oom_recoveries: u64,
    /// Cached blocks rehydrated from the spill manifest across every
    /// restart-in-place (each saved its lineage recompute).
    pub rehydrated_blocks: u64,
    /// On-disk payload bytes of those rehydrated blocks.
    pub rehydrated_bytes: u64,
    /// Speculative duplicate attempts launched by the watchdog (timing-
    /// dependent: how many launch depends on wall-clock interleaving, so
    /// this is observability, never part of the determinism invariant).
    pub speculative_launched: u64,
    /// Speculative duplicates that won their race (timing-dependent).
    pub speculative_wins: u64,
    /// Attempts failed by the watchdog for exceeding their deadline.
    pub timeouts: u64,
    /// Jobs cancelled (by `JobHandle::cancel()` or a job deadline); 1 for
    /// a cancelled job's own roll-up, summed across jobs in merged views.
    pub cancelled: u64,
    /// Simulated time spent on retry backoff and recovery scheduling.
    pub recovery: Duration,
}

impl JobMetrics {
    /// Fold one task run: its time buckets and its work's counts.
    pub fn add_task(&mut self, t: &TaskMetrics) {
        let w = &t.work;
        self.exec += t.total();
        self.gc += w.gc_pause;
        self.gc_concurrent += w.gc_concurrent;
        self.ser += w.ser;
        self.deser += w.deser;
        self.shuffle_read += w.shuffle_read;
        self.shuffle_write += w.shuffle_write;
        self.io += t.io;
        self.add_counts(w);
    }

    /// Fold a work record's counts: every task run's, and an executor
    /// restart's, whose collections are the job's but whose time is no
    /// task's (the time buckets stay the sum of the job's task runs, as
    /// the stage rows are).
    pub(crate) fn add_counts(&mut self, w: &Work) {
        self.minor_gcs += w.minor_gcs;
        self.full_gcs += w.full_gcs;
        self.objects_traced += w.objects_traced;
    }

    /// Fold a stage's fault-handling counters into the job totals.
    pub fn add_stage_recovery(&mut self, s: &StageMetrics) {
        self.attempts += s.attempts;
        self.retries += s.retries;
        self.quarantines += s.quarantines;
        self.restarts += s.restarts;
        self.oom_reruns += s.oom_reruns;
        self.oom_recoveries += s.oom_recoveries;
        self.rehydrated_blocks += s.rehydrated_blocks;
        self.rehydrated_bytes += s.rehydrated_bytes;
        self.speculative_launched += s.speculative_launched;
        self.speculative_wins += s.speculative_wins;
        self.timeouts += s.timeouts;
        self.recovery += s.recovery;
    }

    /// GC share of execution (Table 3's "ratio" column).
    pub fn gc_ratio(&self) -> f64 {
        if self.exec.is_zero() {
            0.0
        } else {
            self.gc.as_secs_f64() / self.exec.as_secs_f64()
        }
    }
}

/// Roll-up of one stage's task wave across a cluster's executors
/// (the per-stage rows of a Spark UI, feeding [`JobMetrics`]).
///
/// `exec` is the wave's critical path: the busiest executor's summed task
/// time (executors run in parallel, so the wave takes as long as its
/// slowest member). The remaining buckets are sums over all tasks.
#[derive(Clone, Debug, Default)]
pub struct StageMetrics {
    pub name: String,
    /// Tasks run in this wave (≥ executor count tasks are multiplexed
    /// round-robin).
    pub tasks: usize,
    /// Critical-path time: max over executors of their summed task totals.
    pub exec: Duration,
    pub compute: Duration,
    pub gc: Duration,
    /// Concurrent-mark overlap summed across the wave's tasks (excluded
    /// from `total_task_time`; the mutator kept running through it).
    pub gc_concurrent: Duration,
    pub ser: Duration,
    pub deser: Duration,
    pub shuffle_read: Duration,
    pub shuffle_write: Duration,
    pub io: Duration,
    /// Bytes moved through the all-to-all exchange that follows this
    /// stage (set on the map side of a shuffle job; 0 otherwise).
    pub shuffle_bytes: u64,
    /// Pages whose ownership moved through that exchange without a copy
    /// (Deca zero-copy hand-over; 0 for byte-format modes).
    pub shuffle_pages: u64,
    /// Physical task runs this stage performed, successful or not —
    /// scheduled attempts plus OOM in-place re-runs; equals
    /// `tasks + retries + oom_reruns` when the stage completes.
    pub attempts: u64,
    /// Re-runs after transient failures.
    pub retries: u64,
    /// Executors quarantined during this stage.
    pub quarantines: u64,
    /// Executors restarted in place during this stage.
    pub restarts: u64,
    /// In-place re-runs performed by graceful OOM degradation (physical
    /// runs, counted in `attempts`; not `retries`).
    pub oom_reruns: u64,
    /// OOM failures absorbed by spill-and-retry (`oom_reruns` that
    /// succeeded).
    pub oom_recoveries: u64,
    /// Cached blocks rehydrated from the spill manifest by restart-in-
    /// place recoveries during this stage.
    pub rehydrated_blocks: u64,
    /// On-disk payload bytes of those rehydrated blocks.
    pub rehydrated_bytes: u64,
    /// Speculative duplicates launched during this stage (timing-
    /// dependent; excluded from the deterministic recovery roll-up).
    pub speculative_launched: u64,
    /// Speculative duplicates that completed before their primary.
    pub speculative_wins: u64,
    /// Attempts the watchdog failed for exceeding `task_deadline`.
    pub timeouts: u64,
    /// Simulated backoff/rescheduling time spent recovering from faults.
    pub recovery: Duration,
    /// The stage never ran any task: the driver aborted it up front (no
    /// healthy executor). Counters in an aborted row are all zero.
    pub aborted: bool,
}

impl StageMetrics {
    pub fn new(name: impl Into<String>) -> StageMetrics {
        StageMetrics { name: name.into(), ..StageMetrics::default() }
    }

    /// Fold one task *attempt* of the wave into the stage sums. The
    /// logical `tasks` count is set by the driver (attempts may exceed it
    /// under retries); `exec` is also handled separately, per executor.
    pub fn add_task(&mut self, t: &TaskMetrics) {
        let w = &t.work;
        self.compute += t.compute;
        self.gc += w.gc_pause;
        self.gc_concurrent += w.gc_concurrent;
        self.ser += w.ser;
        self.deser += w.deser;
        self.shuffle_read += w.shuffle_read;
        self.shuffle_write += w.shuffle_write;
        self.io += t.io;
    }

    /// Total attributed task time across the wave's buckets (not
    /// wall-clock; use `exec` for the critical path).
    pub fn total_task_time(&self) -> Duration {
        self.compute
            + self.gc
            + self.ser
            + self.deser
            + self.shuffle_read
            + self.shuffle_write
            + self.io
    }
}

/// One sample of the lifetime timeline (Figures 8a/9a): how many objects of
/// the profiled class are on the heap, and cumulative GC time, at a moment.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TimelineSample {
    pub at: Duration,
    pub live_objects: usize,
    pub cumulative_gc: Duration,
}

/// Recorder for lifetime timelines.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Timeline {
    pub samples: Vec<TimelineSample>,
}

impl Timeline {
    pub fn new() -> Timeline {
        Timeline::default()
    }

    pub fn record(&mut self, at: Duration, live_objects: usize, cumulative_gc: Duration) {
        self.samples.push(TimelineSample { at, live_objects, cumulative_gc });
    }

    pub fn peak_live(&self) -> usize {
        self.samples.iter().map(|s| s.live_objects).max().unwrap_or(0)
    }

    #[cfg(test)]
    pub fn final_gc(&self) -> Duration {
        self.samples.last().map(|s| s.cumulative_gc).unwrap_or(Duration::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deca_heap::{GcEvent, GcEventKind};

    #[test]
    fn task_totals_and_job_aggregation() {
        let work = Work {
            gc_pause: Duration::from_millis(5),
            gc_concurrent: Duration::from_millis(40),
            ser: Duration::from_millis(1),
            deser: Duration::from_millis(2),
            shuffle_read: Duration::from_millis(3),
            shuffle_write: Duration::from_millis(4),
            spill_bytes: 0,
            minor_gcs: 2,
            full_gcs: 1,
            objects_traced: 7,
        };
        let mut t = TaskMetrics::new("t".into(), Duration::from_millis(25), work);
        assert_eq!(t.compute, Duration::from_millis(10), "wall minus the attributed buckets");
        t.io = Duration::from_millis(5);
        assert_eq!(t.total(), Duration::from_millis(30), "concurrent overlap is not task time");
        let mut j = JobMetrics::default();
        j.add_task(&t);
        j.add_task(&t);
        assert_eq!(j.exec, Duration::from_millis(60));
        assert_eq!(j.gc, Duration::from_millis(10));
        assert_eq!(j.gc_concurrent, Duration::from_millis(80));
        assert_eq!((j.minor_gcs, j.full_gcs, j.objects_traced), (4, 2, 14));
        assert!((j.gc_ratio() - 10.0 / 60.0).abs() < 1e-9);
        let mut s = StageMetrics::new("w");
        s.add_task(&t);
        assert_eq!(s.gc_concurrent, Duration::from_millis(40));
        assert_eq!(s.total_task_time(), Duration::from_millis(30));
    }

    #[test]
    fn spill_bytes_are_modelled_as_disk_time() {
        let work = Work { spill_bytes: SIM_DISK_BPS as u64, ..Work::default() };
        let t = TaskMetrics::new("io".into(), Duration::ZERO, work);
        assert_eq!(t.io, Duration::from_secs(1));
        assert_eq!(t.total(), Duration::from_secs(1));
    }

    #[test]
    fn stage_recovery_rolls_up_into_job() {
        let mut s = StageMetrics::new("map");
        s.tasks = 4;
        s.attempts = 7;
        s.retries = 2;
        s.quarantines = 1;
        s.oom_reruns = 1;
        s.oom_recoveries = 1;
        s.rehydrated_blocks = 3;
        s.rehydrated_bytes = 4096;
        s.speculative_launched = 2;
        s.speculative_wins = 1;
        s.timeouts = 1;
        s.recovery = Duration::from_millis(20);
        let mut j = JobMetrics::default();
        j.add_stage_recovery(&s);
        j.add_stage_recovery(&s);
        assert_eq!(j.attempts, 14);
        assert_eq!(j.retries, 4);
        assert_eq!(j.quarantines, 2);
        assert_eq!(j.oom_reruns, 2);
        assert_eq!(j.oom_recoveries, 2);
        assert_eq!(j.rehydrated_blocks, 6);
        assert_eq!(j.rehydrated_bytes, 8192);
        assert_eq!(j.speculative_launched, 4);
        assert_eq!(j.speculative_wins, 2);
        assert_eq!(j.timeouts, 2);
        assert_eq!(j.cancelled, 0, "cancellation is job-level, not folded from stages");
        assert_eq!(j.recovery, Duration::from_millis(40));
    }

    #[test]
    fn work_since_is_incremental() {
        let mut stats = GcStats::default();
        stats.record(GcEvent {
            kind: GcEventKind::Minor,
            at: Duration::ZERO,
            duration: Duration::from_millis(4),
            objects_traced: 1,
            live_bytes_after: 0,
        });
        let w1 = Work::of_gc(&stats);
        let d1 = w1.since(&Work::default());
        assert_eq!(d1.gc_pause, Duration::from_millis(4));
        assert_eq!(d1.gc_concurrent, Duration::ZERO);
        assert_eq!((d1.minor_gcs, d1.full_gcs, d1.objects_traced), (1, 0, 1));
        // No new collections: nothing more in the next window.
        let w2 = Work::of_gc(&stats);
        assert_eq!(w2.since(&w1), Work::default());
        stats.record(GcEvent {
            kind: GcEventKind::Full,
            at: Duration::ZERO,
            duration: Duration::from_millis(10),
            objects_traced: 1,
            live_bytes_after: 0,
        });
        let d3 = Work::of_gc(&stats).since(&w2);
        assert_eq!(
            d3.gc_pause,
            Duration::from_millis(10),
            "a stop-the-world full trace is all pause"
        );
        assert_eq!(d3.gc_concurrent, Duration::ZERO, "nothing ran concurrently");
        assert_eq!((d3.minor_gcs, d3.full_gcs, d3.objects_traced), (0, 1, 1));
    }

    #[test]
    fn work_since_splits_pause_from_concurrent_overlap() {
        // A concurrent cycle's pauses (initial mark + remark) are charged
        // as pause; the measured mark overlap is reported separately.
        let mut stats = GcStats::default();
        let ev = |kind, ms| GcEvent {
            kind,
            at: Duration::ZERO,
            duration: Duration::from_millis(ms),
            objects_traced: 1,
            live_bytes_after: 0,
        };
        stats.record(ev(GcEventKind::InitialMark, 1));
        stats.record(ev(GcEventKind::ConcMark, 90));
        stats.record(ev(GcEventKind::Remark, 3));
        let w = Work::of_gc(&stats);
        let d = w.since(&Work::default());
        assert_eq!(
            d.gc_pause,
            Duration::from_millis(4),
            "only the cycle's two pauses stop the task"
        );
        assert_eq!(d.gc_concurrent, Duration::from_millis(90), "overlap is the measured mark wall");
        assert_eq!((d.minor_gcs, d.full_gcs), (0, 1), "the cycle is one full collection");
        assert_eq!(Work::of_gc(&stats).since(&w), Work::default(), "drained");
    }

    #[test]
    fn timeline_summaries() {
        let mut tl = Timeline::new();
        tl.record(Duration::from_millis(1), 10, Duration::from_millis(0));
        tl.record(Duration::from_millis(2), 50, Duration::from_millis(3));
        tl.record(Duration::from_millis(3), 20, Duration::from_millis(7));
        assert_eq!(tl.peak_live(), 50);
        assert_eq!(tl.final_gc(), Duration::from_millis(7));
    }
}
