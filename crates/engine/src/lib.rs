//! # deca-engine — a mini-Spark dataflow substrate
//!
//! The evaluation baselines of the paper are defined by *where record data
//! lives* during a job:
//!
//! * **Spark** — records are object graphs on the managed heap; cached RDDs
//!   pin millions of long-living objects that every full collection must
//!   trace (the pathology of §2.2);
//! * **SparkSer** — cached RDDs hold Kryo-serialized byte blocks (few heap
//!   objects), but every access pays deserialization and re-materialises
//!   temporary objects (§6.2, §6.5);
//! * **Deca** — cached RDDs and shuffle buffers hold decomposed raw bytes in
//!   the page groups of `deca-core`; accesses read fields at offsets with no
//!   object materialisation, and space is reclaimed per container lifetime.
//!
//! This crate provides the executors, cache manager, shuffle buffers,
//! serializer and metrics that run the same workloads in all three modes
//! over the simulated heap of `deca-heap`.
//!
//! Scale note: the paper runs 5 nodes × 30 GB executors; we run in-process
//! executors with MB-scale heaps and proportionally scaled datasets. All
//! compute, tracing, copying and (de)serialization costs are real measured
//! work; see DESIGN.md §1 for the substitution argument.

pub mod cache;
pub mod cluster;
pub mod config;
pub mod driver;
pub mod error;
pub mod executor;
pub mod faults;
pub mod metrics;
pub mod record;
pub mod serde_sim;
pub mod server;
pub mod shuffle;
mod stage;
pub mod trace;

pub use cache::{CacheError, CacheStats, CachedRdd, RehydrateOutcome, Tier};
pub use cluster::{ExecutorHealth, LocalCluster};
pub use config::{
    ExecutionMode, ExecutorConfig, ExecutorConfigBuilder, RetryPolicy, SchedulerMode, ServerConfig,
};
pub use driver::{ClusterSession, MapOutputs, ShufflePayload, TaskContext};
pub use error::EngineError;
pub use executor::Executor;
pub use faults::{FaultPlan, FaultSite, FaultSpec};
pub use metrics::{GcAccounting, JobMetrics, StageMetrics, TaskMetrics, Timeline, TimelineSample};
pub use record::{HeapRecord, KryoRecord, Record};
pub use serde_sim::KryoSim;
pub use server::{AppJob, DecaServer, JobCtx, JobHandle, JobOutput, JobSpec};
pub use shuffle::{SparkGroupShuffle, SparkHashShuffle};
pub use trace::{RunTrace, TraceEvent, TraceEventKind, TraceRecorder};
