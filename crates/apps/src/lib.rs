//! # deca-apps — the evaluation workloads
//!
//! The five benchmark applications of the paper's §6 (Table 1), plus the
//! two SQL queries of §6.6, each runnable in the three execution modes
//! (Spark / SparkSer / Deca) over the same generated data:
//!
//! | App | Stages | Jobs | Cache | Shuffle |
//! |-----|--------|------|-------|---------|
//! | WordCount | two | single | none | aggregated |
//! | LogisticRegression | single | multiple | static | none |
//! | KMeans | two | multiple | static | aggregated |
//! | PageRank | multiple | multiple | static | grouped+aggregated |
//! | ConnectedComponents | multiple | multiple | static | grouped+aggregated |
//! | SQL Q1/Q2 | 1–2 | single | static | none / aggregated |
//!
//! Each app returns an [`report::AppReport`] with the measured breakdown
//! and a result checksum, asserted identical across modes by the
//! integration tests.
//!
//! Data generators ([`datagen`]) replace the paper's datasets (Hadoop
//! RandomWriter text, Amazon image vectors, LiveJournal/webbase/HiBench
//! graphs, Common Crawl tables) with seeded synthetic equivalents that
//! preserve the properties the experiments depend on: key skew, degree
//! skew, dimensionality, and cache-to-heap ratios.
//!
//! ## Who owns the data
//!
//! Every app runs one way: as a job description, an [`AppJob`] that
//! `wordcount::job`, `logreg::job`, `kmeans::job`, `pagerank::job`,
//! `concomp::job` and `sql::job` build, run by the stage engine on a
//! standalone [`ClusterSession`] (each app's `run_local`) or submitted to a
//! [`deca_engine::DecaServer`]. No app builds an executor of its own.
//!
//! A job description owns its dataset. Each `job` calls the generator once
//! per table, while the description is built, and keeps the records behind
//! a shared [`Partitioned`] buffer; the job body contains no generator
//! call. Every run of the description — a repeat, a retried or stolen
//! task, a lineage recompute of a lost cache block, a `clone()` submitted
//! to a server — borrows its partition from that buffer,
//! as the paper's jobs read an HDFS file or a cached RDD that already
//! exists (§6). The times in an [`AppReport`] come from `JobMetrics.exec`,
//! the stages' critical path over *task* times, so they never contained
//! generation time.
//!
//! LR, KMeans and the graph jobs cache their input through one handle
//! (`cached.rs`): it runs the load stage, rebuilds a lost block from its
//! partition, and stores blocks as heap objects (Spark), bytes (SparkSer)
//! or what `Optimizer::plan` decides (Deca). SQL keeps its own table cache.

mod cached;
pub mod concomp;
pub mod datagen;
pub mod kmeans;
pub mod logreg;
pub mod pagerank;
pub mod partitioned;
pub mod records;
pub mod report;
pub mod sql;
pub mod wordcount;

pub use partitioned::Partitioned;
pub use report::AppReport;

use std::sync::{Mutex, MutexGuard};

use deca_engine::{
    AppJob, ClusterSession, EngineError, ExecutorConfig, FaultPlan, JobCtx, RetryPolicy,
};

/// Run an [`AppJob`] on a private standalone cluster — the thin local shim
/// over the same job description [`deca_engine::DecaServer::submit`]
/// consumes. The report's label is the job's name.
pub fn run_job_local(app: &AppJob, config: ExecutorConfig, executors: usize) -> AppReport {
    run_job_faulty(app, config, executors, FaultPlan::quiet(), None)
        .expect("fault-free local job run")
}

/// Run an [`AppJob`] on a private standalone cluster under an injected
/// fault plan (and optionally a retry policy override). For any survivable
/// plan the checksum is bit-identical to the fault-free run; an
/// unsurvivable plan surfaces as the task-attributed [`EngineError`].
pub fn run_job_faulty(
    app: &AppJob,
    config: ExecutorConfig,
    executors: usize,
    plan: FaultPlan,
    policy: Option<RetryPolicy>,
) -> Result<AppReport, EngineError> {
    let config = match policy {
        Some(p) => config.retry(p),
        None => config,
    };
    let mut session = ClusterSession::new(executors, config);
    session.install_faults(plan);
    let (checksum, cache_bytes) = run_job_on(app, &mut session)?;
    Ok(AppReport::from_cluster(app.name(), &session, checksum, cache_bytes))
}

/// Run an [`AppJob`] to completion on an already-built session (any
/// executor shape, any installed fault plan) and return
/// `(checksum, cache_bytes)`. The job is finished on the session, so cache
/// occupancy and the job summary are current afterwards.
pub fn run_job_on(app: &AppJob, session: &mut ClusterSession) -> Result<(f64, usize), EngineError> {
    let (checksum, cache_bytes) = {
        let mut ctx = JobCtx::local(session);
        let checksum = app.run(&mut ctx)?;
        (checksum, ctx.noted_cache_bytes())
    };
    session.finish_job();
    Ok((checksum, cache_bytes))
}

/// Lock a job's shared task state, riding through poisoning: the stage
/// engine contains a panicking task as a failed attempt, and the state it
/// guards (block handles) is re-validated by every later attempt.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Test support for the apps' own unit tests: building a description
/// generates its input (one `datagen` call per table on this thread), and
/// running the built description — twice, once from a clone, at two widths
/// — generates nothing more and returns one checksum.
#[cfg(test)]
pub(crate) fn assert_description_owns_its_input(
    build: impl FnOnce() -> AppJob,
    config: ExecutorConfig,
    tables: usize,
) {
    let before = datagen::calls();
    let app = build();
    let built = datagen::calls();
    assert_eq!(built, before + tables, "building the description generates the input");
    let first = run_job_local(&app, config.clone(), 2);
    let again = run_job_local(&app.clone(), config, 1);
    assert_eq!(datagen::calls(), built, "a run reads the dataset, it does not re-make it");
    assert_eq!(first.checksum.to_bits(), again.checksum.to_bits());
}
