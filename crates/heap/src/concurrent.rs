//! The concurrent old-generation marker: a marking thread racing the
//! mutator, with an SATB-style dirty log keeping allocation during the
//! cycle sound.
//!
//! ## The SATB invariant, concretely
//!
//! A cycle begins with a brief stop-the-world **initial mark** that
//! snapshots the heap — the arenas, the class registry, and every root.
//! The marker thread then traces that snapshot while the mutator keeps
//! allocating, promoting, and mutating the *live* arenas. The snapshot is
//! literally the "snapshot at the beginning" the SATB literature reasons
//! about, which collapses the usual barrier argument:
//!
//! * Every object reachable at cycle start is reachable *in the snapshot*
//!   and gets marked — no deletion barrier is needed, because the mutator
//!   cannot un-write the snapshot. Objects that die during the cycle
//!   survive it as floating garbage (collected next cycle), exactly as in
//!   CMS/G1.
//! * Old-generation allocation during the cycle (minor-GC promotions,
//!   pretenured humongous objects, free-list reuse) is **allocate-black**:
//!   [`crate::Heap::alloc_old_words`] appends each new header offset to
//!   the cycle's dirty log. Dirty offsets are always snapshot holes or lie
//!   beyond the snapshot frontier, so the dirty set and the snapshot mark
//!   set are disjoint — the remark pass `debug_assert`s this (the
//!   "no lost or doubly-traced objects" regression hook).
//! * Old objects never move while a cycle runs (the sweep is in-place and
//!   only minor collections run, which touch the old space exclusively
//!   through the logged allocator), so snapshot offsets remain valid in
//!   the live arena.
//!
//! When the marker finishes, the next mutator poll point
//! ([`crate::Heap::poll_gc`] — the allocation slow path, the minor-GC
//! tail, external registration, and the Deca page-release hook in
//! `deca-core`) runs the stop-the-world **remark**: apply the dirty log
//! to the old-space bitmap, drop remembered-set entries whose holders
//! died, sweep the old generation against the combined marks, and retire
//! the cycle. Nothing moves at remark, so there is no fix-up pass and the
//! pause is small — that, measured, is what the engine reports instead of
//! the retired `PauseModel` constants.
//!
//! A direct [`crate::Heap::full_gc`] (allocation pressure, the engine's
//! spill path) *cancels* a running cycle and collects stop-the-world —
//! the analogue of CMS's concurrent-mode failure; the wasted concurrent
//! work is recorded in `GcStats::concurrent_mark_time` /
//! `concurrent_aborts`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::mark::{mark_heap, MarkOutcome};
use crate::space::SpaceId;
use crate::stats::{GcEvent, GcEventKind};
use crate::Heap;

/// State of one in-flight concurrent marking cycle.
pub(crate) struct ConcurrentCycle {
    /// Heap time at which the cycle's initial mark ran (the `at` of the
    /// eventual `ConcMark` event).
    started_at: Duration,
    /// Old-space header offsets allocated since the snapshot
    /// (allocate-black; applied to the mark bitmap at remark).
    pub(crate) dirty: Vec<usize>,
    done: Arc<AtomicBool>,
    cancel: Arc<AtomicBool>,
    handle: Option<JoinHandle<(Option<MarkOutcome>, Duration)>>,
}

impl ConcurrentCycle {
    pub(crate) fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Join the finished marker, returning its outcome and the wall time
    /// it spent tracing (the measured mutator/marker overlap).
    fn join(mut self) -> (Option<MarkOutcome>, Duration) {
        self.handle.take().expect("cycle joined twice").join().expect("concurrent marker panicked")
    }

    /// Abort the cycle (concurrent-mode failure): the marker stops at its
    /// next cancellation check and its partial marks are discarded.
    /// Returns the wall time spent tracing before the abort.
    fn cancel_and_join(mut self) -> Duration {
        self.cancel.store(true, Ordering::Relaxed);
        let (_, wasted) =
            self.handle.take().expect("cycle joined twice").join().expect("marker panicked");
        wasted
    }
}

impl Drop for ConcurrentCycle {
    fn drop(&mut self) {
        // A heap dropped mid-cycle must not leak the marker thread.
        if let Some(handle) = self.handle.take() {
            self.cancel.store(true, Ordering::Relaxed);
            let _ = handle.join();
        }
    }
}

impl Heap {
    /// Whether a concurrent marking cycle is currently in flight (the
    /// marker thread is alive and the remark pause has not run yet).
    #[cfg(test)]
    pub fn concurrent_marking_active(&self) -> bool {
        self.conc.is_some()
    }

    /// Test/bench hook: while held, the marker thread parks (alive,
    /// pre-trace) instead of finishing, so a test can deterministically
    /// overlap mutator work with an open marking phase. Releasing the hold
    /// lets the cycle run to completion.
    pub fn hold_concurrent_marker(&mut self, on: bool) {
        self.conc_hold.store(on, Ordering::Release);
    }

    /// Mutator poll point: if the concurrent marker has finished, run the
    /// stop-the-world remark + sweep that retires the cycle. Returns true
    /// iff a cycle was retired.
    pub fn poll_gc(&mut self) -> bool {
        if self.conc.as_ref().is_some_and(|c| c.is_done()) {
            self.finish_concurrent_cycle();
            return true;
        }
        false
    }

    /// Start a concurrent old-generation marking cycle: a stop-the-world
    /// initial mark snapshots the arenas and roots, then the marker thread
    /// traces the snapshot while the mutator continues. No-op (returning
    /// false) if a cycle is already in flight. Normally initiated by the
    /// occupancy trigger at the minor-GC tail; public so tests and the
    /// benchmark's pause probe can drive cycles deterministically.
    pub fn start_concurrent_cycle(&mut self) -> bool {
        if self.conc.is_some() {
            return false;
        }
        let at = self.epoch.elapsed();
        let pause_start = Instant::now();

        // --- Initial mark (STW): snapshot arenas, classes, and roots.
        let snapshot = self.spaces.clone();
        let registry = self.registry.clone();
        let mut roots: Vec<crate::ObjRef> = Vec::new();
        let mut rs = std::mem::take(&mut self.roots);
        rs.for_each_mut(|r| roots.push(*r));
        self.roots = rs;

        let done = Arc::new(AtomicBool::new(false));
        let cancel = Arc::new(AtomicBool::new(false));
        let hold = Arc::clone(&self.conc_hold);
        let handle = {
            let done = Arc::clone(&done);
            let cancel = Arc::clone(&cancel);
            std::thread::Builder::new()
                .name("deca-conc-mark".into())
                .spawn(move || {
                    while hold.load(Ordering::Acquire) && !cancel.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                    let trace_start = Instant::now();
                    // The same sequential tracer the stop-the-world marks
                    // run, here off the mutator's thread.
                    let outcome = mark_heap(&snapshot, &registry, &roots, Some(&cancel));
                    let wall = trace_start.elapsed();
                    done.store(true, Ordering::Release);
                    (outcome, wall)
                })
                .expect("spawn concurrent marker")
        };

        let initial_pause = pause_start.elapsed();
        let live = self.used_bytes() + self.external_bytes;
        self.stats.record(GcEvent {
            kind: GcEventKind::InitialMark,
            at,
            duration: initial_pause,
            objects_traced: 0,
            live_bytes_after: live,
        });
        self.conc = Some(ConcurrentCycle {
            started_at: at,
            dirty: Vec::new(),
            done,
            cancel,
            handle: Some(handle),
        });
        true
    }

    /// The occupancy trigger's concurrent arm: start a cycle unless one is
    /// in flight or the old generation has not grown since the last cycle
    /// retired (hysteresis — a live set permanently above the initiating
    /// occupancy must not spin back-to-back cycles).
    pub(crate) fn maybe_start_concurrent_cycle(&mut self) {
        if self.conc.is_some() {
            return;
        }
        let used = self.old_used_bytes() + self.external_bytes;
        if used < self.conc_floor {
            return;
        }
        self.start_concurrent_cycle();
    }

    /// Abort any in-flight cycle ahead of a stop-the-world full collection
    /// (the concurrent-mode-failure path).
    pub(crate) fn cancel_concurrent_cycle(&mut self) {
        if let Some(cycle) = self.conc.take() {
            let wasted = cycle.cancel_and_join();
            self.stats.concurrent_mark_time += wasted;
            self.stats.concurrent_aborts += 1;
        }
    }

    /// Stop-the-world remark + sweep retiring a finished cycle: apply the
    /// dirty log to the snapshot marks, filter the remembered set, sweep
    /// the old generation, and record the measured `ConcMark`/`Remark`
    /// events. Nothing moves, so no reference fix-up is needed.
    fn finish_concurrent_cycle(&mut self) {
        let mut cycle = self.conc.take().expect("no cycle to finish");
        let at = self.epoch.elapsed();
        let pause_start = Instant::now();
        let started_at = cycle.started_at;
        let dirty = std::mem::take(&mut cycle.dirty);
        let (outcome, mark_wall) = cycle.join();
        // `cancel` is only ever raised by `cancel_concurrent_cycle`, which
        // also removes the cycle from `self.conc` — a cycle reaching this
        // path completed its trace.
        let outcome = outcome.expect("finished cycle was never cancelled");
        let crate::mark::MarkOutcome { mut marks, objects_marked } = outcome;

        // Apply the allocate-black dirty log to the old-space bitmap. The
        // snapshot cannot have reached these objects (they were holes or
        // beyond the frontier at snapshot time), so each bit must be new.
        let old = SpaceId::Old as usize;
        let mut remark_traced = 0u64;
        for off in dirty {
            debug_assert!(
                !marks[old].is_marked(off),
                "dirty object at {off} already snapshot-marked — SATB violation"
            );
            marks[old].set(off);
            remark_traced += 1;
        }

        // Remembered-set holders that died during the cycle are about to
        // be swept into holes; drop them before the next minor collection
        // walks the set.
        self.remset.retain(|r| marks[old].is_marked(r.offset()));

        // Externals are pinned live by registration; account the touch.
        remark_traced += self.external_count() as u64;

        self.sweep_old_with_marks(&marks[old]);

        let live = self.used_bytes() + self.external_bytes;
        self.stats.record(GcEvent {
            kind: GcEventKind::ConcMark,
            at: started_at,
            duration: mark_wall,
            objects_traced: objects_marked,
            live_bytes_after: live,
        });
        self.stats.record(GcEvent {
            kind: GcEventKind::Remark,
            at,
            duration: pause_start.elapsed(),
            objects_traced: remark_traced,
            live_bytes_after: live,
        });

        // Hysteresis: the next cycle waits for real old-generation growth.
        self.set_conc_floor();
    }

    /// Raise the concurrent-cycle hysteresis floor to the current live set
    /// plus a slack margin; called after any old-generation collection.
    pub(crate) fn set_conc_floor(&mut self) {
        let live = self.old_used_bytes() + self.external_bytes;
        self.conc_floor = live + self.old_capacity_bytes() / 32;
    }
}
