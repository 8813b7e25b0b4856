//! Shared helpers for the workspace integration tests.
//!
//! Spill-directory hygiene: every test gets a directory that is unique per
//! test (process id + thread id + a tag), and removes it by calling
//! [`TestDir::cleanup`] at the end of the test body. On failure the test
//! panics before `cleanup`, leaving the spill files behind for inspection
//! — cleanup-on-success only, by construction.
//!
//! Each integration-test target compiles this file as a module, so helpers
//! unused by a given target are expected: hence the `dead_code` allowance.
#![allow(dead_code)]

use std::path::{Path, PathBuf};

use deca_core::MemoryManager;
use deca_engine::{ClusterSession, ExecutorConfig, SchedulerMode};

/// The executor widths every equivalence matrix runs.
pub const WIDTHS: [usize; 3] = [1, 2, 4];

/// Every matrix width under both schedulers, except width 1, where a lone
/// executor has nothing to steal and the two are one schedule.
pub fn scheduler_cells() -> impl Iterator<Item = (usize, SchedulerMode)> {
    let both = [SchedulerMode::Wave, SchedulerMode::Pull];
    WIDTHS
        .into_iter()
        .flat_map(move |w| both.into_iter().map(move |s| (w, s)))
        .filter(|&(w, s)| w > 1 || s == SchedulerMode::Pull)
}

/// The ownership ledger at the end of a job: every page group an
/// executor's memory manager still holds is owned by a Deca block its
/// cache still holds, and every heap root by an object or serialized
/// block, so no shuffle table or UDF temporary outlived its task.
pub fn assert_groups_owned_by_cache(session: &ClusterSession, cell: &str) {
    for i in 0..session.executors() {
        let e = session.executor(i);
        assert_eq!(
            (e.mm.live_groups(), e.heap.root_count()),
            e.cache.ledger(),
            "{cell}: executor {i} holds [page groups, heap roots] that no cached block owns"
        );
    }
}

/// A per-test spill directory, removed on success.
pub struct TestDir {
    path: PathBuf,
}

impl TestDir {
    /// A unique directory for the calling test. The tag keeps paths
    /// readable; uniqueness comes from the process and thread ids (the
    /// test harness runs each `#[test]` on its own thread).
    pub fn new(tag: &str) -> TestDir {
        TestDir {
            path: std::env::temp_dir().join(format!(
                "deca-it-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            )),
        }
    }

    /// The directory that executors constructed with the default
    /// `ExecutorConfig` spill into on this thread — for tests that drive
    /// whole workloads (`logreg::run_local` etc.) and cannot pass a path down.
    pub fn executor_default() -> TestDir {
        TestDir { path: ExecutorConfig::default_spill_dir() }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A `MemoryManager` spilling into this directory.
    pub fn mm(&self, page_size: usize) -> MemoryManager {
        MemoryManager::new(page_size, self.path.clone())
    }

    /// Remove the directory. Call at the end of a passing test; a failing
    /// test never reaches this, preserving the evidence.
    pub fn cleanup(self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
