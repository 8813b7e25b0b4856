//! Uniform result reporting for the workloads.

use std::time::Duration;

use deca_engine::{ClusterSession, ExecutionMode, JobMetrics, TaskMetrics, Timeline};

/// The outcome of one workload run in one mode.
#[derive(Clone, Debug)]
pub struct AppReport {
    pub app: String,
    pub mode: ExecutionMode,
    pub metrics: JobMetrics,
    /// Lifetime timeline (populated by apps that sample it).
    pub timeline: Timeline,
    /// A mode-independent checksum of the computed result, for
    /// cross-mode correctness assertions.
    pub checksum: f64,
    /// Bytes of cached data (paper's "Cached Data" bars).
    pub cache_bytes: usize,
    /// Objects the job's collections traced (`metrics.objects_traced`).
    pub objects_traced: u64,
    /// The slowest task's breakdown (Figure 11 reports the slowest task).
    pub slowest_task: Option<TaskMetrics>,
}

impl AppReport {
    /// Assemble a report from a finished cluster session: the job's
    /// roll-up (exec = the parallel critical path; its collection counts
    /// and objects traced are the job's) and merged timelines. Call after
    /// [`ClusterSession::finish_job`] so cache occupancy is current.
    pub fn from_cluster(
        app: impl Into<String>,
        session: &ClusterSession,
        checksum: f64,
        cache_bytes: usize,
    ) -> AppReport {
        let metrics = session.job_summary();
        AppReport {
            app: app.into(),
            mode: session.mode(),
            objects_traced: metrics.objects_traced,
            metrics,
            timeline: session.merged_timeline(),
            checksum,
            cache_bytes,
            slowest_task: session.slowest_task(),
        }
    }

    pub fn exec(&self) -> Duration {
        self.metrics.exec
    }

    pub fn gc(&self) -> Duration {
        self.metrics.gc
    }

    /// GC share of execution (Table 3).
    pub fn gc_ratio(&self) -> f64 {
        self.metrics.gc_ratio()
    }

    /// One summary line for harness output.
    pub fn line(&self) -> String {
        format!(
            "{:<10} {:<9} exec={:>8.3}s gc={:>8.3}s ({:>5.1}%) ser={:.3}s deser={:.3}s io={:.3}s cache={:.2}MB gcs={}m/{}f",
            self.app,
            self.mode.name(),
            self.metrics.exec.as_secs_f64(),
            self.metrics.gc.as_secs_f64(),
            self.gc_ratio() * 100.0,
            self.metrics.ser.as_secs_f64(),
            self.metrics.deser.as_secs_f64(),
            self.metrics.io.as_secs_f64(),
            self.cache_bytes as f64 / (1 << 20) as f64,
            self.metrics.minor_gcs,
            self.metrics.full_gcs,
        )
    }
}

/// Relative speedup of `other` over `self` (exec-time ratio).
pub fn speedup(baseline: &AppReport, other: &AppReport) -> f64 {
    baseline.metrics.exec.as_secs_f64() / other.metrics.exec.as_secs_f64().max(1e-9)
}

/// GC-time reduction of `other` relative to `baseline` (Table 3's
/// "reduction" column).
pub fn gc_reduction(baseline: &AppReport, other: &AppReport) -> f64 {
    let b = baseline.metrics.gc.as_secs_f64();
    if b <= 0.0 {
        return 0.0;
    }
    1.0 - other.metrics.gc.as_secs_f64() / b
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(exec_ms: u64, gc_ms: u64) -> AppReport {
        let metrics = JobMetrics {
            exec: Duration::from_millis(exec_ms),
            gc: Duration::from_millis(gc_ms),
            ..Default::default()
        };
        AppReport {
            app: "t".into(),
            mode: ExecutionMode::Spark,
            metrics,
            timeline: Timeline::new(),
            checksum: 0.0,
            cache_bytes: 0,
            objects_traced: 0,
            slowest_task: None,
        }
    }

    #[test]
    fn speedup_and_reduction() {
        let slow = report(1000, 800);
        let fast = report(100, 8);
        assert!((speedup(&slow, &fast) - 10.0).abs() < 1e-9);
        assert!((gc_reduction(&slow, &fast) - 0.99).abs() < 1e-9);
        assert!(gc_reduction(&fast, &slow) <= 0.0);
    }

    #[test]
    fn line_renders() {
        let r = report(1000, 500);
        let line = r.line();
        assert!(line.contains("Spark"));
        assert!(line.contains("50.0%"));
    }
}
