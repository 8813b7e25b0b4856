//! The executor: one simulated JVM process (heap + Deca memory manager +
//! serializer + metrics), running its tasks sequentially.
//!
//! The paper's executors are JVM processes running task threads; here each
//! executor is single-threaded, and the engine's worker pool runs each
//! executor on its own long-lived OS thread, several in parallel. Task timing attributes wall time to
//! compute / GC pause / (de)serialization / shuffle / spill-IO buckets
//! (Figure 11's breakdown). Collector pauses are *measured*: the heap's
//! stop-the-world time is charged to the triggering task, and concurrent
//! mark overlap (the Table-4 CMS/G1 collectors) is reported alongside without
//! inflating task time. Every bucket and count of a run is one difference
//! of the executor's counters ([`Executor::work`]).

use std::time::{Duration, Instant};

use deca_core::{MemoryManager, PageRun, ShuffleArena, ShufflePayload};
use deca_heap::{Heap, HeapConfig};

use crate::cache::CacheManager;
use crate::config::ExecutorConfig;
use crate::metrics::{TaskMetrics, Timeline, Work};
use crate::serde_sim::KryoSim;
use crate::trace::{dur_ns, TraceRecorder};

/// Simulated disk bandwidth for spill accounting (bytes/sec). Real file
/// I/O also happens (tmpfs-fast); this models production SAS-disk costs so
/// spilling hurts proportionally, as in the paper's 100–200 GB runs.
pub const SIM_DISK_BPS: f64 = 500.0 * (1 << 20) as f64;

/// One executor. Fields are public where apps need direct access for
/// mode-specific kernels (the Deca "transformed code" reads pages through
/// `mm`; Spark kernels read objects through `heap`).
pub struct Executor {
    pub heap: Heap,
    pub mm: MemoryManager,
    /// Pooled shuffle pages and byte buffers, reused across shuffle
    /// rounds. A separate field (not inside `mm`) so map kernels can
    /// borrow `mm`/`heap` for container iteration while pushing into
    /// runs through the arena.
    pub arena: ShuffleArena,
    pub kryo: KryoSim,
    pub cache: CacheManager,
    pub config: ExecutorConfig,
    pub timeline: Timeline,
    /// Structured run-trace recorder (enabled by `config.tracing`); the
    /// driver merges every executor's events into one [`crate::RunTrace`].
    pub trace: TraceRecorder,
    /// Simulated job clock: cumulative attributed task time.
    sim_clock: Duration,
    /// Cumulative shuffle read and write time, outside the serializer's.
    shuffle_read: Duration,
    shuffle_write: Duration,
    /// A "crashed" executor process: every task fails until the driver
    /// restarts it (fault-injection model; see `crate::faults`).
    poisoned: bool,
}

impl Executor {
    pub fn new(config: ExecutorConfig) -> Executor {
        // The configured collector and its concurrency default (PS
        // stop-the-world, CMS and G1 concurrent) are the heap's whole
        // collection policy.
        let heap = Heap::new(
            HeapConfig::with_total(config.heap_bytes).with_algorithm(config.gc_algorithm),
        );
        let mut mm = MemoryManager::new(config.page_size, config.spill_dir.clone());
        // Lifetime-based releases only reach the run trace when traced;
        // otherwise the manager's log stays off (and empty).
        mm.log_releases = config.tracing;
        // The cache spills under this executor's own directory: block ids
        // are per-executor, so a shared directory would alias
        // `cache-block-{id}.bin` across executors.
        let mut cache = CacheManager::new(config.storage_budget());
        cache.set_dir(config.spill_dir.join("cache"));
        Executor {
            heap,
            mm,
            arena: ShuffleArena::new(config.page_size),
            kryo: KryoSim::new(),
            cache,
            trace: TraceRecorder::new(config.tracing),
            sim_clock: Duration::ZERO,
            config,
            timeline: Timeline::new(),
            shuffle_read: Duration::ZERO,
            shuffle_write: Duration::ZERO,
            poisoned: false,
        }
    }

    /// Mark this executor as crashed: subsequent tasks fail with
    /// `ExecutorLost` until [`Executor::recover`]. The flag is only set
    /// from the executor's own worker and read between rounds, so crash
    /// semantics are deterministic.
    pub fn poison(&mut self) {
        self.poisoned = true;
    }

    /// Restart a crashed executor in place. Heap/cache state survives —
    /// the model is a hung JVM brought back, not a wiped node; tasks must
    /// not rely on *uncached* state from before the crash.
    pub fn recover(&mut self) {
        self.poisoned = false;
    }

    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Relieve memory pressure: evict every evictable cached block to
    /// disk and run a full collection (the graceful-OOM degradation step
    /// the driver takes inside the window of an OOM-failed task's in-place
    /// re-run). Returns the resident cache bytes freed; the collection,
    /// the eviction's serialization and its I/O land in that run's record.
    pub fn spill_for_memory(&mut self) -> u64 {
        let freed = self.cache.evict_all(&mut self.heap, &mut self.kryo, &mut self.mm).unwrap_or(0);
        self.heap.full_gc();
        freed
    }

    /// Run one task as scheduling attempt `attempt` of `(stage, task)`,
    /// so the run trace attributes the attempt — and every GC pause,
    /// spill, and page-group release inside it — to its logical position.
    /// The stage engine's attempt body calls this; `run_task` is the form
    /// without a logical position (the engine's own unit tests).
    pub(crate) fn run_task_in<R>(
        &mut self,
        name: impl Into<String>,
        stage: &str,
        task: usize,
        attempt: u32,
        f: impl FnOnce(&mut Executor) -> R,
    ) -> (R, TaskMetrics) {
        self.trace.set_context(stage, task, attempt);
        self.cache.set_fault_ctx(stage, task, attempt);
        let r = self.run_task(name, f);
        self.cache.clear_fault_ctx();
        self.trace.clear_context();
        r
    }

    /// Install the run's fault plan into the cache manager so the
    /// spill-path kill points (`SpillWrite`, `ManifestCommit`,
    /// `SpillRead`, `Rehydrate`) can consult it.
    pub(crate) fn install_fault_plan(&mut self, plan: &crate::faults::FaultPlan) {
        self.cache.install_fault_plan(plan.clone());
    }

    /// Restart a crashed executor *in place with recovery*: clear the
    /// poison flag, then run the cache's [`crash_restart`] — the volatile
    /// (hot/warm) tiers are wiped as a real crash would, and cold blocks
    /// are rehydrated from the spill manifest where it vouches for them,
    /// saving their lineage recompute. One `CacheRehydrate` trace event is
    /// emitted per rehydrated block. `ordinal` is how many times this
    /// executor restarted before (it keys the `Rehydrate` kill point, so a
    /// crash *during* recovery resolves differently on the next restart).
    ///
    /// [`crash_restart`]: crate::cache::CacheManager::crash_restart
    pub(crate) fn restart_in_place(
        &mut self,
        stage: &str,
        ordinal: u32,
    ) -> crate::cache::RehydrateOutcome {
        self.poisoned = false;
        let out = self.cache.crash_restart(&mut self.heap, &mut self.mm, stage, ordinal);
        self.heap.full_gc();
        if self.trace.enabled() {
            let (wall, sim) = (self.trace.now_ns(), dur_ns(self.sim_clock));
            for &block in &out.rehydrated {
                self.trace.cache_rehydrate(stage, block, wall, sim);
            }
        }
        out
    }

    /// Run one task, attributing its wall time. Returns the task's result
    /// and its breakdown; the executor keeps neither.
    pub(crate) fn run_task<R>(
        &mut self,
        name: impl Into<String>,
        f: impl FnOnce(&mut Executor) -> R,
    ) -> (R, TaskMetrics) {
        let name = name.into();
        let gc_event_mark = self.heap.stats().events.len();
        let wall_start_ns = self.trace.now_ns();
        let before = self.work();
        // A task's UDF temporaries die with it: whatever its body left on
        // the shadow stack, outside a `Heap::scope` or in one a caught panic
        // unwound, must not stay rooted for the recovery's full GC, the
        // retry, or — on a long-lived executor — later jobs.
        let stack = self.heap.frame();

        let wall_start = Instant::now();
        let result = f(self);
        let wall = wall_start.elapsed();
        self.heap.pop(stack);
        let t = TaskMetrics::new(name, wall, self.work().since(&before));

        if self.trace.enabled() {
            let sim_start = dur_ns(self.sim_clock);
            // Collections this task triggered, one GcPause each. Their
            // wall timestamps are heap-epoch-relative (the clock the
            // lifetime timelines sample), which is why `at` is kept
            // as-is rather than rebased.
            for ev in self.heap.stats().events_since(gc_event_mark) {
                self.trace.gc_pause(ev, sim_start);
            }
            if t.work.spill_bytes > 0 {
                self.trace.spill_io(t.work.spill_bytes, t.io, wall_start_ns, sim_start);
            }
            // Lifetime-based reclamations since the last drain (this task
            // plus any inter-task releases, e.g. a driver-invoked spill).
            for r in self.mm.take_release_events() {
                self.trace.page_release(&r, wall_start_ns, sim_start);
            }
            // Shuffle page hand-overs: ownership of map-output pages moved
            // to the exchange without a copy (the zero-copy analogue of a
            // page-group release — the writer's claim on the pages ends).
            for h in self.mm.take_handover_events() {
                self.trace.page_handover(&h, wall_start_ns, sim_start);
            }
            self.trace.task_attempt(&t, wall, wall_start_ns, sim_start);
        }
        self.sim_clock += t.total();
        (result, t)
    }

    /// The simulated job clock: cumulative attributed task time on this
    /// executor (advances by each task's [`TaskMetrics::total`]).
    pub fn sim_now(&self) -> Duration {
        self.sim_clock
    }

    /// Everything this executor has done, as cumulative counters: a run's
    /// or a restart's work is the difference of two readings.
    pub fn work(&self) -> Work {
        Work {
            ser: self.kryo.ser_time,
            deser: self.kryo.deser_time,
            shuffle_read: self.shuffle_read,
            shuffle_write: self.shuffle_write,
            spill_bytes: self.mm.spill_write_bytes
                + self.mm.spill_read_bytes
                + self.cache.spill_write_bytes
                + self.cache.spill_read_bytes,
            ..Work::of_gc(self.heap.stats())
        }
    }

    /// Start a per-reducer shuffle output run backed by this executor's
    /// page arena.
    pub fn new_run(&mut self) -> PageRun {
        self.arena.new_run()
    }

    /// Finish a map task's per-reducer run and hand it to the exchange.
    ///
    /// Ownership of the pages transfers to the returned payload — no
    /// bytes move — and the hand-over is noted with the memory manager so
    /// it lands in the trace as a [`crate::TraceEventKind::PageHandover`].
    pub fn hand_over(&mut self, run: PageRun) -> ShufflePayload {
        let pages = run.page_count();
        let bytes = run.len();
        self.arena.stats().count_handover(pages as u64, bytes as u64);
        self.mm.note_handover(pages, bytes);
        ShufflePayload::Pages(run)
    }

    /// A pooled byte buffer for byte-format (Spark/SparkSer) map outputs,
    /// cleared and with at least `cap` capacity. Pair with
    /// [`Executor::recycle_payload`] on the read side.
    pub fn take_shuffle_buf(&mut self, cap: usize) -> Vec<u8> {
        self.arena.take_buf(cap)
    }

    /// Return a consumed shuffle payload's storage to this executor's
    /// pools (pages for `Pages`, the byte buffer for `Bytes`).
    pub fn recycle_payload(&mut self, payload: ShufflePayload) {
        self.arena.recycle(payload);
    }

    /// Run a shuffle-write section: its wall time (minus serializer time,
    /// which stays in the `ser` bucket) is attributed to `shuffle_write`.
    pub fn shuffle_write_scope<R>(&mut self, f: impl FnOnce(&mut Executor) -> R) -> R {
        let ser0 = self.kryo.ser_time;
        let t = Instant::now();
        let r = f(self);
        let wall = t.elapsed();
        let ser = self.kryo.ser_time - ser0;
        self.shuffle_write += wall.saturating_sub(ser);
        r
    }

    /// Run a shuffle-read section: wall minus deserializer time is
    /// attributed to `shuffle_read`.
    pub fn shuffle_read_scope<R>(&mut self, f: impl FnOnce(&mut Executor) -> R) -> R {
        let deser0 = self.kryo.deser_time;
        let t = Instant::now();
        let r = f(self);
        let wall = t.elapsed();
        let deser = self.kryo.deser_time - deser0;
        self.shuffle_read += wall.saturating_sub(deser);
        r
    }

    /// Record a lifetime-timeline sample for the profiled class (Figures
    /// 8a/9a): live instance count and cumulative collector time.
    pub fn sample_timeline(&mut self, class: deca_heap::ClassId) {
        let live = self.heap.live_count(class);
        let gc = self.heap.stats().total_gc_time();
        let at = self.heap.elapsed();
        self.timeline.record(at, live, gc);
    }

    /// Release every cache block stamped with `job` (the job service's
    /// end-of-job cleanup: shared long-lived executors must not
    /// accumulate finished jobs' cache state).
    pub fn release_job_blocks(&mut self, job: u64) {
        for id in self.cache.blocks_of_job(job) {
            self.cache.release(id, &mut self.heap, &mut self.mm);
        }
    }

    // ------------------------------------------------------------------
    // accessors — what apps and harnesses read without field-poking.
    // Mode-specific kernels (Deca page reads, Spark heap walks) still use
    // the public `heap` / `mm` fields directly.
    // ------------------------------------------------------------------

    /// The execution mode this executor runs in.
    pub fn mode(&self) -> crate::config::ExecutionMode {
        self.config.mode
    }

    /// Collector statistics of the simulated heap.
    pub fn heap_stats(&self) -> &deca_heap::GcStats {
        self.heap.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExecutionMode;
    use deca_heap::{ClassBuilder, FieldKind};

    fn exec() -> Executor {
        Executor::new(ExecutorConfig::new(ExecutionMode::Spark, 4 << 20))
    }

    #[test]
    fn task_attribution_includes_gc() {
        let mut e = exec();
        let c = e.heap.define_class(
            ClassBuilder::new("T").field("a", FieldKind::I64).field("b", FieldKind::I64),
        );
        let ((), t) = e.run_task("churn", |e| {
            for _ in 0..300_000 {
                e.heap.alloc(c).unwrap();
            }
        });
        assert_eq!(t.name, "churn");
        assert!(e.heap.stats().minor_collections > 0);
        assert!(t.work.gc_pause > Duration::ZERO, "allocation churn must show GC time");
        assert!(t.total() >= t.work.gc_pause);
    }

    /// A Deca block swapped out and read back is the memory manager's disk
    /// traffic alone, so the task is charged each of its bytes once.
    #[test]
    fn a_spilled_deca_block_charges_each_byte_once() {
        let dir = std::env::temp_dir().join(format!("deca-exec-io-{}", std::process::id()));
        let config = ExecutorConfig::new(ExecutionMode::Deca, 16 << 20).spill_dir(dir.clone());
        let mut e = Executor::new(config);
        let recs: Vec<(i64, i64)> = (0..4_000).map(|i| (i, -i)).collect();
        let (back, t) = e.run_task("spill", |e| {
            let b = e.cache.put_deca(&mut e.heap, &mut e.mm, &recs).unwrap();
            e.cache.evict_all(&mut e.heap, &mut e.kryo, &mut e.mm).unwrap();
            let mut back = Vec::new();
            let decode = <(i64, i64) as deca_core::DecaRecord>::decode;
            e.cache
                .deca_block(b)
                .scan_bytes(&mut e.mm, &mut e.heap, decode, |r| back.push(r))
                .unwrap();
            back
        });
        assert_eq!(back, recs);
        let (written, read) = (e.mm.spill_write_bytes, e.mm.spill_read_bytes);
        assert!(written > 0 && read > 0, "the block went out and came back");
        let want = Duration::from_secs_f64((written + read) as f64 / SIM_DISK_BPS);
        assert_eq!(t.io, want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serialization_attribution() {
        let mut e = exec();
        let recs: Vec<(i64, i64)> = (0..20_000).map(|i| (i, i * 2)).collect();
        let (buf, t) = e.run_task("ser", |e| e.kryo.serialize_all(&recs));
        assert!(t.work.ser > Duration::ZERO);
        let (back, t) = e.run_task("deser", |e| e.kryo.deserialize_all::<(i64, i64)>(&buf));
        assert_eq!(back.len(), recs.len());
        assert!(t.work.deser > Duration::ZERO);
        assert_eq!(t.work.ser, Duration::ZERO, "per-task deltas only");
    }

    #[test]
    fn concurrent_collector_reports_smaller_pause() {
        // CMS marks concurrently by default: the heap-sized trace
        // runs on a real marker thread racing the mutator, so the cycle's
        // stop-the-world pauses (initial mark + remark) cover only the
        // snapshot and the dirty log. Wall-clock ratios flake under
        // parallel test load, so the pause comparison is on *measured
        // traced work* — schedule-independent — plus the measured overlap.
        // (This test once compared retired `PauseModel` constants; the
        // overlap is now measured off the actual thread.)
        use deca_heap::GcEventKind;
        let cfg = ExecutorConfig::new(ExecutionMode::Spark, 4 << 20)
            .gc_algorithm(deca_heap::GcAlgorithm::Cms);
        let mut e = Executor::new(cfg);
        assert!(e.heap.config().concurrent, "CMS marks concurrently");
        let c = e.heap.define_class(ClassBuilder::new("K").field("v", FieldKind::I64));
        let arr = e.heap.define_array_class("Object[]", FieldKind::Ref);
        let ((), t) = e.run_task("pin+mark", |e| {
            // Build a large tenured live set, the graph the cycle marks.
            let n = 30_000;
            let holder = e.heap.alloc_array(arr, n).unwrap();
            let root = e.heap.add_root(holder);
            for i in 0..n {
                let o = e.heap.alloc(c).unwrap();
                let holder = e.heap.root_ref(root);
                e.heap.array_set_ref(holder, i, o);
            }
            e.heap.full_gc(); // tenure it (the STW baseline trace)
                              // One concurrent cycle to completion, allocating throughout.
            assert!(e.heap.start_concurrent_cycle());
            let mut spins: u64 = 0;
            while !e.heap.poll_gc() {
                e.heap.alloc(c).unwrap();
                std::thread::yield_now();
                spins += 1;
                assert!(spins < 100_000_000, "concurrent marker never finished");
            }
        });
        let stats = e.heap.stats().clone();
        assert_eq!(stats.concurrent_cycles, 1);
        assert_eq!(stats.concurrent_aborts, 0);
        assert!(stats.concurrent_mark_time > Duration::ZERO, "overlap is measured, not modelled");
        let traced = |kind| {
            stats
                .events
                .iter()
                .find(|ev| ev.kind == kind)
                .unwrap_or_else(|| panic!("expected a {kind:?} event"))
                .objects_traced
        };
        let stw_full = traced(GcEventKind::Full);
        let conc_mark = traced(GcEventKind::ConcMark);
        let remark = traced(GcEventKind::Remark);
        assert!(conc_mark >= 30_000, "the racing thread traced the tenured graph");
        assert!(
            remark < stw_full / 10,
            "the cycle's pause traces only the dirty log ({remark} objects), a sliver of the \
             STW full collection's whole-heap trace ({stw_full})"
        );
        // Accounting: pauses are charged to the task; the overlap is
        // reported beside them and never inflates task time.
        assert_eq!(t.work.gc_concurrent, stats.concurrent_mark_time);
        assert_eq!(t.work.gc_pause, stats.total_gc_time());
        assert_eq!(e.sim_now(), t.total(), "sim clock excludes concurrent overlap");
    }

    #[test]
    fn trace_attributes_gc_pauses_to_the_triggering_task() {
        use crate::trace::TraceEventKind;
        let mut e = exec();
        let c = e.heap.define_class(
            ClassBuilder::new("T").field("a", FieldKind::I64).field("b", FieldKind::I64),
        );
        let ((), warm) = e.run_task_in("warm", "s", 0, 0, |_e| {});
        let pauses_before =
            e.trace.events().iter().filter(|ev| ev.kind == TraceEventKind::GcPause).count();
        assert_eq!(pauses_before, 0, "no collections, no GcPause events");
        let ((), churn) = e.run_task_in("churn", "s", 1, 0, |e| {
            for _ in 0..300_000 {
                e.heap.alloc(c).unwrap();
            }
        });
        let pauses: Vec<_> =
            e.trace.events().iter().filter(|ev| ev.kind == TraceEventKind::GcPause).collect();
        assert_eq!(pauses.len() as u64, e.heap.stats().total_collections());
        assert!(pauses.iter().all(|ev| ev.task == Some(1)), "pauses belong to the churn task");
        // Traced-object attribution is conserved: the per-event counts sum
        // to the heap's total. (Individual minor GCs here may trace zero —
        // the churn is all garbage.)
        assert_eq!(pauses.iter().map(|ev| ev.count).sum::<u64>(), e.heap.stats().objects_traced);
        // Every attempt is recorded, with the simulated clock advancing.
        let attempts: Vec<_> =
            e.trace.events().iter().filter(|ev| ev.kind == TraceEventKind::TaskAttempt).collect();
        assert_eq!(attempts.len(), 2);
        assert!(attempts[1].sim_ns >= attempts[0].sim_ns + attempts[0].sim_dur_ns);
        assert_eq!(
            e.sim_now(),
            warm.total() + churn.total(),
            "sim clock is cumulative attributed time"
        );
    }

    #[test]
    fn tracing_off_records_nothing_and_keeps_metrics() {
        let cfg = ExecutorConfig::new(ExecutionMode::Spark, 4 << 20).tracing(false);
        let mut e = Executor::new(cfg);
        let c = e.heap.define_class(ClassBuilder::new("K").field("v", FieldKind::I64));
        let ((), t) = e.run_task("work", |e| {
            for _ in 0..50_000 {
                e.heap.alloc(c).unwrap();
            }
        });
        assert!(e.trace.is_empty());
        assert!(!e.mm.log_releases);
        assert_eq!(t.name, "work", "metrics are unaffected by the tracing knob");
    }

    /// A body that fails between pushing its temporaries and truncating
    /// them — a store's `?` on an `OomError` — leaves no stack root behind,
    /// so the recovery's full GC frees the failed attempt's objects.
    #[test]
    fn a_failed_task_leaves_no_stack_roots() {
        let mut e = exec();
        let c = e.heap.define_class(ClassBuilder::new("T").field("a", FieldKind::I64));
        let roots = e.heap.root_count();
        let (r, _): (Result<(), deca_heap::OomError>, _) = e.run_task("fails", |e| {
            for _ in 0..2 {
                let o = e.heap.alloc(c)?;
                e.heap.push_stack(o);
            }
            Err(deca_heap::OomError { requested: 1 << 30 })
        });
        assert!(r.is_err());
        assert_eq!(e.heap.root_count(), roots, "the failed task's stack roots are gone");
        e.spill_for_memory();
        assert_eq!(e.heap.object_count(), 0, "nothing of the failed attempt survives the full GC");
    }

    #[test]
    fn timeline_sampling() {
        let mut e = exec();
        let c = e.heap.define_class(ClassBuilder::new("P").field("x", FieldKind::I64));
        e.sample_timeline(c);
        for _ in 0..100 {
            e.heap.alloc(c).unwrap();
        }
        e.sample_timeline(c);
        assert_eq!(e.timeline.samples.len(), 2);
        assert_eq!(e.timeline.peak_live(), 100);
    }
}
