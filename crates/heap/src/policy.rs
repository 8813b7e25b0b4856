//! The collectors: Table 4's three HotSpot collectors, the heap's only
//! collection-policy selector.
//!
//! The paper's Table 4 compares Parallel Scavenge, CMS, and G1 on LR and
//! PR. Earlier revisions of this crate *modelled* the pause/throughput
//! trade with fixed fractions (a `PauseModel`); the collectors are now
//! implemented for real over one set of spaces (eden, two survivors,
//! old), so measured behaviour — stop-the-world pause time,
//! concurrent-mark overlap, sweep fragmentation — produces the comparison
//! instead. All three run the same generational (Cheney) minor
//! collection; they differ in how the old generation is collected:
//!
//! * **Parallel Scavenge** — copy-compacting full collections, every one a
//!   stop-the-world pause, started only on exhaustion.
//! * **CMS** — the old generation is marked by a racing thread (see
//!   `crate::concurrent`) and swept in place into a fine-grained free
//!   list at a short remark pause; young survivors evacuate into the
//!   holes. Collection initiates early (occupancy 0.80).
//! * **G1** — like CMS, but the sweep recycles only coarse holes
//!   ([`GcAlgorithm::min_hole_words`]), modelling region reclamation, and
//!   falls back to compaction when a sweep leaves occupancy over budget.
//!   Initiates earlier still (0.70).

/// Which HotSpot collector manages the heap.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum GcAlgorithm {
    /// The default throughput collector (stop-the-world).
    #[default]
    ParallelScavenge,
    /// Concurrent Mark-Sweep.
    Cms,
    /// Garbage-First.
    G1,
}

impl GcAlgorithm {
    pub const ALL: [GcAlgorithm; 3] =
        [GcAlgorithm::ParallelScavenge, GcAlgorithm::Cms, GcAlgorithm::G1];

    pub fn name(self) -> &'static str {
        match self {
            GcAlgorithm::ParallelScavenge => "PS",
            GcAlgorithm::Cms => "CMS",
            GcAlgorithm::G1 => "G1",
        }
    }

    /// Old-generation occupancy at which a minor collection initiates an
    /// old-generation collection (the concurrent collectors start their
    /// marking cycle early; Parallel Scavenge collects only on exhaustion).
    pub fn initiating_occupancy(self) -> f64 {
        match self {
            GcAlgorithm::ParallelScavenge => 1.0,
            GcAlgorithm::Cms => 0.80,
            GcAlgorithm::G1 => 0.70,
        }
    }

    /// Whether this collector marks the old generation on a concurrent
    /// thread by default ([`crate::HeapConfig::with_concurrent`] overrides).
    pub fn concurrent_by_default(self) -> bool {
        matches!(self, GcAlgorithm::Cms | GcAlgorithm::G1)
    }

    /// Smallest dead run (in arena words, header included) the sweeping
    /// collectors return to the free list. CMS recycles every hole; G1
    /// only coarse ones — smaller runs stay as unusable fragmentation
    /// until a neighbouring death coalesces them, modelling region
    /// granularity. Parallel Scavenge compacts and keeps no free list.
    pub fn min_hole_words(self) -> usize {
        match self {
            GcAlgorithm::G1 => 64,
            _ => 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initiation_ordering_matches_collector_shapes() {
        let [ps, cms, g1] = GcAlgorithm::ALL;
        assert!(g1.initiating_occupancy() < cms.initiating_occupancy());
        assert!(cms.initiating_occupancy() < ps.initiating_occupancy());
        assert!(g1.min_hole_words() > cms.min_hole_words());
    }

    #[test]
    fn concurrent_collectors_initiate_early_and_overlap() {
        // PS is all-pause and collects only on exhaustion; CMS and G1 mark
        // concurrently and initiate progressively earlier.
        let [ps, cms, g1] = GcAlgorithm::ALL;
        assert_eq!([ps.name(), cms.name(), g1.name()], ["PS", "CMS", "G1"]);
        assert!(!ps.concurrent_by_default());
        assert!(cms.concurrent_by_default());
        assert!(g1.concurrent_by_default());
        assert_eq!(ps.initiating_occupancy(), 1.0);
        assert_eq!([cms.initiating_occupancy(), g1.initiating_occupancy()], [0.80, 0.70]);
    }
}
