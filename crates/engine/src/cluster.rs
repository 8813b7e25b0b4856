//! A local "cluster": several executors, each owning its heap and memory
//! manager, running in parallel OS threads.
//!
//! Shuffle data moves between executors as serialized byte buffers (Spark
//! serializes shuffle writes; Deca writes its decomposed bytes verbatim —
//! §6.1's "saves the cost of data (de-)serialization by directly
//! outputting the raw bytes").

use crate::config::ExecutorConfig;
use crate::executor::Executor;

/// Driver-side health record of one executor (a job's *lane*: a physical
/// executor standalone, a virtual one on the server), owned by the job's
/// stage engine and updated between task rounds (never from executor
/// threads, so health decisions are deterministic).
#[derive(Clone, Debug, Default)]
pub struct ExecutorHealth {
    /// Task failures charged to this executor in the current stage
    /// (Spark's per-stage blacklisting counter; reset at stage start).
    pub stage_failures: u32,
    /// Quarantined executors receive no further tasks (persists across
    /// stages until [`Executor::recover`] + un-quarantine).
    pub quarantined: bool,
    /// Times this executor was restarted in place (the
    /// spare-last-executor path).
    pub restarts: u64,
    /// Cached blocks rehydrated from the spill manifest across this
    /// executor's restarts (each saved its lineage recompute).
    pub rehydrated_blocks: u64,
}

/// A set of executors driven stage-by-stage by the workload code.
pub struct LocalCluster {
    pub executors: Vec<Executor>,
}

impl LocalCluster {
    pub fn new(configs: Vec<ExecutorConfig>) -> LocalCluster {
        LocalCluster { executors: configs.into_iter().map(Executor::new).collect() }
    }

    /// A cluster of `n` identical executors.
    pub fn uniform(n: usize, config: ExecutorConfig) -> LocalCluster {
        let configs = (0..n)
            .map(|i| {
                let mut c = config.clone();
                c.spill_dir = config.spill_dir.join(format!("exec-{i}"));
                c
            })
            .collect();
        LocalCluster::new(configs)
    }

    pub fn len(&self) -> usize {
        self.executors.len()
    }

    pub fn is_empty(&self) -> bool {
        self.executors.is_empty()
    }

    /// Run `f` on every executor in parallel (one stage's task wave).
    /// Results are returned in executor order.
    pub fn par_run<R: Send>(&mut self, f: impl Fn(usize, &mut Executor) -> R + Sync) -> Vec<R> {
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .executors
                .iter_mut()
                .enumerate()
                .map(|(i, e)| {
                    let f = &f;
                    s.spawn(move || f(i, e))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("executor task")).collect()
        })
    }

    /// Aggregate job metrics across executors (sums; exec time is the max,
    /// since executors run in parallel).
    pub fn job_summary(&self) -> crate::metrics::JobMetrics {
        let mut out = crate::metrics::JobMetrics::default();
        for e in &self.executors {
            let j = &e.job;
            out.exec = out.exec.max(j.exec);
            out.gc += j.gc;
            out.ser += j.ser;
            out.deser += j.deser;
            out.shuffle_read += j.shuffle_read;
            out.shuffle_write += j.shuffle_write;
            out.io += j.io;
            out.cache_bytes += j.cache_bytes;
            out.swapped_cache_bytes += j.swapped_cache_bytes;
            out.minor_gcs += j.minor_gcs;
            out.full_gcs += j.full_gcs;
        }
        out
    }
}

/// Lanes currently accepting tasks.
pub fn healthy_count_in(health: &[ExecutorHealth]) -> usize {
    health.iter().filter(|h| !h.quarantined).count()
}

/// The first non-quarantined lane at or cyclically after `start`. With
/// nothing quarantined this is `start` itself, which preserves the static
/// round-robin pinning (task `t` → lane `t % E`).
pub fn healthy_from_in(health: &[ExecutorHealth], start: usize) -> Option<usize> {
    let n = health.len();
    (0..n).map(|off| (start + off) % n).find(|&i| !health[i].quarantined)
}

/// The first non-quarantined lane cyclically *after* `failed` — where a
/// retry migrates to. Cycles all the way around, so on a one-lane job the
/// (restarted) same lane is returned.
pub fn healthy_after_in(health: &[ExecutorHealth], failed: usize) -> Option<usize> {
    let n = health.len();
    (1..=n).map(|off| (failed + off) % n).find(|&i| !health[i].quarantined)
}

/// Transpose map-side shuffle outputs into reduce-side inputs:
/// `outputs[map][reduce]` → `inputs[reduce][map]`. Buffers move, never
/// copy — for page-backed payloads this is the ownership hand-over.
pub fn exchange<T>(outputs: Vec<Vec<T>>) -> Vec<Vec<T>> {
    if outputs.is_empty() {
        return Vec::new();
    }
    let reducers = outputs[0].len();
    debug_assert!(outputs.iter().all(|o| o.len() == reducers));
    // Every reducer receives exactly one buffer per map task.
    let maps = outputs.len();
    let mut inputs: Vec<Vec<T>> = (0..reducers).map(|_| Vec::with_capacity(maps)).collect();
    for map_out in outputs {
        for (r, buf) in map_out.into_iter().enumerate() {
            inputs[r].push(buf);
        }
    }
    inputs
}

/// Assign a key to a reduce partition.
pub fn partition_of(key_hash: u64, reducers: usize) -> usize {
    (key_hash % reducers as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExecutionMode;

    #[test]
    fn parallel_execution_and_summary() {
        let cfg = ExecutorConfig::new(ExecutionMode::Spark, 4 << 20);
        let mut cluster = LocalCluster::uniform(3, cfg);
        let ids = cluster.par_run(|i, e| {
            e.run_task(format!("t{i}"), |_| i * 10);
            i
        });
        assert_eq!(ids, vec![0, 1, 2]);
        assert!(cluster.executors.iter().all(|e| e.tasks.len() == 1));
        let _ = cluster.job_summary();
    }

    #[test]
    fn health_helpers_respect_quarantine() {
        let mut health = vec![ExecutorHealth::default(); 3];
        assert_eq!(healthy_count_in(&health), 3);
        assert_eq!(healthy_from_in(&health, 1), Some(1), "no quarantine keeps round-robin pinning");
        assert_eq!(healthy_after_in(&health, 1), Some(2));
        health[1].quarantined = true;
        assert_eq!(healthy_count_in(&health), 2);
        assert_eq!(healthy_from_in(&health, 1), Some(2), "skips the quarantined executor");
        assert_eq!(healthy_after_in(&health, 2), Some(0), "wraps past quarantine");
        health[0].quarantined = true;
        health[2].quarantined = true;
        assert_eq!(healthy_from_in(&health, 0), None);
        assert_eq!(healthy_after_in(&health, 0), None);
    }

    #[test]
    fn exchange_transposes() {
        let outputs = vec![vec![vec![1], vec![2]], vec![vec![3], vec![4]], vec![vec![5], vec![6]]];
        let inputs = exchange(outputs);
        assert_eq!(inputs, vec![vec![vec![1], vec![3], vec![5]], vec![vec![2], vec![4], vec![6]],]);
    }

    #[test]
    fn partitioning_is_stable() {
        for h in 0..100u64 {
            assert_eq!(partition_of(h, 4), (h % 4) as usize);
        }
        assert_eq!(partition_of(7, 1), 0);
    }
}
