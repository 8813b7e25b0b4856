//! Collection statistics and the GC event log.
//!
//! The event log drives the paper's lifetime figures (Figures 8a and 9a):
//! each collection appends a timestamped [`GcEvent`] with its duration and
//! the amount of tracing work performed.

use std::time::Duration;

/// Kind of a collection event.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum GcEventKind {
    Minor,
    Full,
    /// Stop-the-world snapshot pause opening a concurrent marking cycle.
    InitialMark,
    /// The concurrent mark itself: `duration` is the marker thread's wall
    /// time *overlapping* the mutator, not a pause. Recorded at remark
    /// with `at` set to the cycle's start.
    ConcMark,
    /// Stop-the-world remark + sweep retiring a concurrent cycle (counts
    /// as the cycle's one full collection).
    Remark,
}

impl GcEventKind {
    /// Stable lowercase name, used by the run-trace exporters.
    pub fn name(self) -> &'static str {
        match self {
            GcEventKind::Minor => "minor",
            GcEventKind::Full => "full",
            GcEventKind::InitialMark => "initial-mark",
            GcEventKind::ConcMark => "conc-mark",
            GcEventKind::Remark => "remark",
        }
    }

    /// Whether this event stops the mutator (everything except the
    /// concurrent mark overlap).
    pub fn is_pause(self) -> bool {
        !matches!(self, GcEventKind::ConcMark)
    }
}

/// One collection, as recorded in the event log.
#[derive(Copy, Clone, Debug)]
pub struct GcEvent {
    pub kind: GcEventKind,
    /// Time since heap creation at which the collection started.
    pub at: Duration,
    /// Stop-the-world tracing duration (measured wall time of the trace).
    pub duration: Duration,
    /// Objects traced (copied or marked) during this collection.
    pub objects_traced: u64,
    /// Nominal bytes live after the collection (young + old).
    pub live_bytes_after: usize,
}

/// Aggregate collector statistics.
#[derive(Default, Clone, Debug)]
pub struct GcStats {
    pub minor_collections: u64,
    pub full_collections: u64,
    pub minor_time: Duration,
    pub full_time: Duration,
    /// Total objects traced across all collections.
    pub objects_traced: u64,
    /// Nominal bytes copied by minor collections (survivor copies).
    pub bytes_copied: u64,
    /// Nominal bytes promoted into the old generation.
    pub bytes_promoted: u64,
    /// Objects allocated over the heap's lifetime.
    pub objects_allocated: u64,
    /// Nominal bytes allocated over the heap's lifetime.
    pub bytes_allocated: u64,
    /// Wall time the concurrent marker spent tracing while the mutator
    /// ran (measured overlap — *not* part of [`GcStats::total_gc_time`]).
    pub concurrent_mark_time: Duration,
    /// Concurrent marking cycles that ran to completion (remark retired).
    pub concurrent_cycles: u64,
    /// Concurrent cycles aborted by a stop-the-world full collection
    /// (the concurrent-mode-failure analogue).
    pub concurrent_aborts: u64,
    /// Every collection, in order.
    pub events: Vec<GcEvent>,
}

impl GcStats {
    /// Total stop-the-world collection (pause) time. Concurrent marking
    /// overlap is tracked separately in `concurrent_mark_time`.
    pub fn total_gc_time(&self) -> Duration {
        self.minor_time + self.full_time
    }

    /// Total number of collections.
    pub fn total_collections(&self) -> u64 {
        self.minor_collections + self.full_collections
    }

    /// Longest single old-generation pause on record (full collections,
    /// initial marks, and remarks — the metric the concurrent collectors
    /// shrink).
    #[cfg(test)]
    pub fn max_full_pause(&self) -> Duration {
        self.events
            .iter()
            .filter(|e| e.kind != GcEventKind::Minor && e.kind.is_pause())
            .map(|e| e.duration)
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// Collections recorded after `mark` (a prior `events.len()` reading):
    /// the incremental window the engine's run trace drains per task, so
    /// each pause is attributed to exactly one task attempt.
    pub fn events_since(&self, mark: usize) -> &[GcEvent] {
        &self.events[mark.min(self.events.len())..]
    }

    /// Record one collection event (public for downstream tests and
    /// synthetic accounting; the heap calls this internally).
    pub fn record(&mut self, ev: GcEvent) {
        match ev.kind {
            GcEventKind::Minor => {
                self.minor_collections += 1;
                self.minor_time += ev.duration;
            }
            GcEventKind::Full => {
                self.full_collections += 1;
                self.full_time += ev.duration;
            }
            // The snapshot pause is full-collection pause time, but the
            // cycle's collection is only counted once — at remark.
            GcEventKind::InitialMark => {
                self.full_time += ev.duration;
            }
            GcEventKind::ConcMark => {
                self.concurrent_mark_time += ev.duration;
                self.concurrent_cycles += 1;
            }
            GcEventKind::Remark => {
                self.full_collections += 1;
                self.full_time += ev.duration;
            }
        }
        self.objects_traced += ev.objects_traced;
        self.events.push(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_aggregates() {
        let mut s = GcStats::default();
        s.record(GcEvent {
            kind: GcEventKind::Minor,
            at: Duration::from_millis(1),
            duration: Duration::from_millis(2),
            objects_traced: 10,
            live_bytes_after: 100,
        });
        s.record(GcEvent {
            kind: GcEventKind::Full,
            at: Duration::from_millis(5),
            duration: Duration::from_millis(7),
            objects_traced: 90,
            live_bytes_after: 50,
        });
        assert_eq!(s.minor_collections, 1);
        assert_eq!(s.full_collections, 1);
        assert_eq!(s.total_collections(), 2);
        assert_eq!(s.objects_traced, 100);
        assert_eq!(s.total_gc_time(), Duration::from_millis(9));
        assert_eq!(s.events.len(), 2);
    }

    #[test]
    fn concurrent_cycle_events_aggregate() {
        let mut s = GcStats::default();
        let ev = |kind, ms, traced| GcEvent {
            kind,
            at: Duration::from_millis(1),
            duration: Duration::from_millis(ms),
            objects_traced: traced,
            live_bytes_after: 0,
        };
        s.record(ev(GcEventKind::InitialMark, 1, 0));
        s.record(ev(GcEventKind::ConcMark, 40, 1000));
        s.record(ev(GcEventKind::Remark, 2, 30));
        // One completed cycle = one full collection; the concurrent
        // overlap stays out of the pause totals.
        assert_eq!(s.full_collections, 1);
        assert_eq!(s.concurrent_cycles, 1);
        assert_eq!(s.total_gc_time(), Duration::from_millis(3));
        assert_eq!(s.concurrent_mark_time, Duration::from_millis(40));
        assert_eq!(s.objects_traced, 1030);
        assert_eq!(s.max_full_pause(), Duration::from_millis(2));
        assert!(GcEventKind::ConcMark.name() == "conc-mark" && !GcEventKind::ConcMark.is_pause());
    }
}
