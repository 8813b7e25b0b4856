//! A cached dataset: one block per `(executor, partition)`, stored in the
//! representation its container decision names.
//!
//! LR, KMeans and the graph jobs' adjacency cache an input once and scan it
//! every iteration. [`CachedDataset::load`] runs the load stage: task `p`
//! caches partition `p` on executor `p % E`, where every later task `p`
//! (same pinning) finds it. A block is trusted only while its executor's
//! cache still holds it: a retried or stolen attempt on another executor,
//! or one after a crash restart wiped the block, recomputes it from its
//! partition first (lineage, §6.1), so the scanned bytes are the same
//! wherever a task runs.
//!
//! Spark caches heap objects and SparkSer serialized bytes. Deca follows
//! the runtime optimizer's decision for the container, made before anything
//! is cached (§4.3, Appendix A): an SFST becomes unframed pages, an RFST
//! framed pages, and a kept container stays as heap objects.

use std::collections::HashMap;
use std::sync::Mutex;

use deca_core::optimizer::ContainerDecision;
use deca_engine::cache::BlockId;
use deca_engine::record::Record;
use deca_engine::{EngineError, ExecutionMode, Executor, JobCtx, TaskContext};

/// How a cached dataset's records are stored.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Repr {
    /// Heap object graphs (Spark; a container Deca keeps on the heap).
    Objects,
    /// Kryo bytes in one heap byte array (SparkSer).
    Serialized,
    /// Decomposed page segments: unframed records of `Some(size)` bytes
    /// (SFST), or length-framed records (RFST, decompose-on-copy).
    Pages { record_size: Option<usize> },
}

impl Repr {
    /// A cached primary container's representation in `mode`. Only Deca
    /// plans: it stores what `decide`, the optimizer's decision, names, and
    /// an error planning it is the plan's.
    /// `sfst_size` is the runtime value of a record size the analysis
    /// proved constant (LR's `D`). An SFST without one, or a decision a
    /// cached primary cannot take, is [`EngineError::Plan`].
    pub(crate) fn plan(
        mode: ExecutionMode,
        decide: impl FnOnce() -> Result<ContainerDecision, EngineError>,
        sfst_size: Option<usize>,
    ) -> Result<Repr, EngineError> {
        let decision = match mode {
            ExecutionMode::Spark => return Ok(Repr::Objects),
            ExecutionMode::SparkSer => return Ok(Repr::Serialized),
            ExecutionMode::Deca => decide()?,
        };
        match decision {
            ContainerDecision::DecomposeSfst if sfst_size.is_some() => {
                Ok(Repr::Pages { record_size: sfst_size })
            }
            ContainerDecision::DecomposeRfst | ContainerDecision::DecomposeOnCopy => {
                Ok(Repr::Pages { record_size: None })
            }
            ContainerDecision::Keep(_) => Ok(Repr::Objects),
            d @ (ContainerDecision::DecomposeSfst | ContainerDecision::SharePrimary(_)) => {
                Err(EngineError::Plan(format!("a cached primary cannot store {d:?} here")))
            }
        }
    }

    /// Cache `recs` on `e` in this representation.
    pub(crate) fn put<T: Record + 'static>(
        self,
        e: &mut Executor,
        recs: &[T],
    ) -> Result<BlockId, EngineError>
    where
        T::Classes: 'static,
    {
        Ok(match self {
            Repr::Objects => {
                let classes = T::register(&mut e.heap);
                e.cache.put_objects(&mut e.heap, &mut e.kryo, &mut e.mm, &classes, recs)?
            }
            Repr::Serialized => {
                e.cache.put_serialized(&mut e.heap, &mut e.kryo, &mut e.mm, recs)?
            }
            Repr::Pages { record_size: Some(size) } => {
                e.cache.put_deca_sfst(&mut e.heap, &mut e.mm, recs, size)?
            }
            Repr::Pages { record_size: None } => e.cache.put_deca(&mut e.heap, &mut e.mm, recs)?,
        })
    }
}

/// A dataset's lineage: caches partition `p` on an executor (derives its
/// records, then [`Repr::put`]s them).
type Compute<'a> = dyn Fn(&mut Executor, usize, Repr) -> Result<BlockId, EngineError> + Sync + 'a;

/// A job's cached dataset: its representation, its lineage and the blocks
/// built so far.
pub(crate) struct CachedDataset<'a> {
    repr: Repr,
    compute: Box<Compute<'a>>,
    blocks: Mutex<HashMap<(usize, usize), BlockId>>,
}

impl<'a> CachedDataset<'a> {
    /// Run the load stage, one task per partition, then note the job's
    /// cache footprint.
    pub(crate) fn load(
        job_ctx: &mut JobCtx,
        stage: &str,
        partitions: usize,
        repr: Repr,
        compute: impl Fn(&mut Executor, usize, Repr) -> Result<BlockId, EngineError> + Sync + 'a,
    ) -> Result<CachedDataset<'a>, EngineError> {
        let data = CachedDataset { repr, compute: Box::new(compute), blocks: Mutex::default() };
        job_ctx.run_stage(stage, partitions, |ctx, e| data.compute(ctx, e).map(drop))?;
        job_ctx.note_cache_bytes();
        Ok(data)
    }

    /// How the blocks store their records; kernels dispatch on it.
    pub(crate) fn repr(&self) -> Repr {
        self.repr
    }

    /// Partition `ctx.task`'s block on this executor, recomputed if this
    /// executor has no live copy.
    pub(crate) fn block(
        &self,
        ctx: &TaskContext,
        e: &mut Executor,
    ) -> Result<BlockId, EngineError> {
        let key = (ctx.executor, ctx.task);
        if let Some(&b) = crate::lock(&self.blocks).get(&key).filter(|b| e.cache.contains(**b)) {
            return Ok(b);
        }
        self.compute(ctx, e)
    }

    fn compute(&self, ctx: &TaskContext, e: &mut Executor) -> Result<BlockId, EngineError> {
        let b = (self.compute)(e, ctx.task, self.repr)?;
        crate::lock(&self.blocks).insert((ctx.executor, ctx.task), b);
        Ok(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    use deca_core::optimizer::KeepReason;
    use deca_engine::{
        AppJob, ClusterSession, ExecutorConfig, FaultPlan, FaultSite, RetryPolicy, SchedulerMode,
    };
    use deca_udt::ContainerId;

    use crate::Partitioned;

    const PAGES: Repr = Repr::Pages { record_size: None };

    /// A two-partition dataset of `i64`s, cached as Deca pages, that
    /// counts how often a block was computed.
    struct Fixture {
        parts: Partitioned<i64>,
        computed: AtomicUsize,
    }

    impl Fixture {
        fn new() -> Fixture {
            Fixture {
                parts: Partitioned::split((0..40).collect(), 2),
                computed: AtomicUsize::new(0),
            }
        }

        fn load<'a>(&'a self, job_ctx: &mut JobCtx) -> CachedDataset<'a> {
            CachedDataset::load(job_ctx, "load", 2, PAGES, |e, p, repr| {
                self.computed.fetch_add(1, Ordering::SeqCst);
                repr.put(e, self.parts.part(p))
            })
            .expect("load stage")
        }

        fn computed(&self) -> usize {
            self.computed.load(Ordering::SeqCst)
        }
    }

    /// Every task reads its partition back through the handle; returns
    /// `(executor, records)` per task.
    fn scan(job_ctx: &mut JobCtx, stage: &str, data: &CachedDataset) -> Vec<(usize, Vec<i64>)> {
        job_ctx
            .run_stage(stage, 2, |ctx, e| {
                let b = data.block(ctx, e)?;
                let recs = e.cache.deca_block(b).decode_all(&mut e.mm, &mut e.heap)?;
                Ok((ctx.executor, recs))
            })
            .expect("scan stage")
    }

    fn deca(executors: usize) -> ClusterSession {
        let config = ExecutorConfig::new(ExecutionMode::Deca, 8 << 20)
            .scheduler(SchedulerMode::Wave)
            .retry(RetryPolicy::resilient());
        ClusterSession::new(executors, config)
    }

    #[test]
    fn a_block_released_between_two_stages_is_rebuilt_from_its_partition() {
        let fx = Fixture::new();
        let mut session = deca(1);
        let mut job_ctx = JobCtx::local(&mut session);
        let data = fx.load(&mut job_ctx);
        assert_eq!(fx.computed(), 2);
        job_ctx
            .run_stage("unpersist", 2, |ctx, e| {
                let b = data.block(ctx, e)?;
                if ctx.task == 1 {
                    e.cache.release(b, &mut e.heap, &mut e.mm);
                }
                Ok(())
            })
            .expect("unpersist stage");
        assert_eq!(fx.computed(), 2, "both blocks were live for the release stage");
        let read = scan(&mut job_ctx, "scan", &data);
        assert_eq!(fx.computed(), 3, "only the released block is recomputed");
        for (p, (_, recs)) in read.iter().enumerate() {
            assert_eq!(recs.as_slice(), fx.parts.part(p), "partition {p}");
        }
        scan(&mut job_ctx, "again", &data);
        assert_eq!(fx.computed(), 3, "the rebuilt block is trusted afterwards");
    }

    #[test]
    fn an_attempt_on_another_executor_builds_its_own_copy_and_keeps_the_first() {
        let fx = Fixture::new();
        let mut session = deca(2);
        session.install_faults(FaultPlan::quiet().force(
            FaultSite::TaskBody,
            "migrate",
            Some(0),
            Some(0),
        ));
        let mut job_ctx = JobCtx::local(&mut session);
        let data = fx.load(&mut job_ctx);
        // Task 0's first attempt fails on executor 0; its retry runs on
        // executor 1, which never cached partition 0.
        let moved = scan(&mut job_ctx, "migrate", &data);
        assert_eq!(moved.iter().map(|(x, _)| *x).collect::<Vec<_>>(), [1, 1]);
        assert_eq!(moved[0].1.as_slice(), fx.parts.part(0));
        assert_eq!(fx.computed(), 3, "the migrated attempt built its own copy");
        let mut keys: Vec<_> = crate::lock(&data.blocks).keys().copied().collect();
        keys.sort();
        assert_eq!(keys, [(0, 0), (1, 0), (1, 1)]);
        // Back home, task 0 finds executor 0's copy still valid.
        let home = scan(&mut job_ctx, "home", &data);
        assert_eq!(home.iter().map(|(x, _)| *x).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(home[0].1.as_slice(), fx.parts.part(0));
        assert_eq!(fx.computed(), 3, "no copy was rebuilt");
    }

    #[test]
    fn the_mode_and_the_decision_pick_the_representation() {
        let unplanned = || -> Result<ContainerDecision, EngineError> {
            panic!("only Deca consults the optimizer")
        };
        assert_eq!(Repr::plan(ExecutionMode::Spark, unplanned, None).unwrap(), Repr::Objects);
        assert_eq!(Repr::plan(ExecutionMode::SparkSer, unplanned, None).unwrap(), Repr::Serialized);
        let deca = |d: ContainerDecision, size| Repr::plan(ExecutionMode::Deca, || Ok(d), size);
        let sfst = deca(ContainerDecision::DecomposeSfst, Some(24)).unwrap();
        assert_eq!(sfst, Repr::Pages { record_size: Some(24) });
        let framed = Repr::Pages { record_size: None };
        assert_eq!(deca(ContainerDecision::DecomposeRfst, Some(24)).unwrap(), framed);
        assert_eq!(deca(ContainerDecision::DecomposeOnCopy, None).unwrap(), framed);
        let kept = deca(ContainerDecision::Keep(KeepReason::Variable), None).unwrap();
        assert_eq!(kept, Repr::Objects);
        assert!(matches!(deca(ContainerDecision::DecomposeSfst, None), Err(EngineError::Plan(_))));
    }

    #[test]
    fn a_decision_a_cached_primary_cannot_take_fails_before_any_stage_runs() {
        let app = AppJob::new("share", |job_ctx| {
            let share = || Ok(ContainerDecision::SharePrimary(ContainerId(0)));
            let repr = Repr::plan(ExecutionMode::Deca, share, None)?;
            CachedDataset::load(job_ctx, "load", 1, repr, |e, _, repr| repr.put(e, &[7i64]))?;
            Ok(0.0)
        });
        let mut session = deca(1);
        let err = crate::run_job_on(&app, &mut session).expect_err("SharePrimary is unstorable");
        assert!(matches!(err, EngineError::Plan(_)) && !err.is_transient(), "{err}");
        assert!(session.stages().is_empty(), "no stage ran");
    }
}
