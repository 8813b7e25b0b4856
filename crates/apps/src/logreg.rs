//! Logistic Regression (§6.2, Figure 9): one stage, many jobs, a static
//! cached RDD, no shuffle.
//!
//! The cached `LabeledPoint`s dominate the heap. In Spark mode every
//! iteration walks millions of live objects (full collections trace them
//! all, fruitlessly) and the gradient map allocates a temporary
//! `double[d]` per point. The gradient is one UDF (`Gradient`) over a view
//! of a point; over page bytes it is Figure 12's transformed code, reading
//! `label` and the features at fixed offsets into a preallocated result
//! array — no objects, no collections.
//!
//! The job is described once as an [`AppJob`] ([`job`]) and runs through
//! the cluster driver: an `lr-load` stage caches partition `p`'s points on
//! executor `p % E`, then each iteration is one `lr-iter{i}` stage whose
//! tasks return partial gradients the driver sums in task order — so the
//! f64 addition sequence, and hence the weights, are bit-identical for any
//! executor count, standalone or on a [`deca_engine::DecaServer`]. A
//! retried or stolen task that lands on an executor without its block
//! recaches it from its input partition first (lineage recompute). Before
//! the load stage, Deca's runtime optimizer picks the cached layout from
//! the job's IR, and each iteration's scan reads the layout stored.
//!
//! The description owns its input: [`job`] generates the labeled points
//! once, when it is called, and the load stage, every lineage recompute
//! and every later run of the description borrow partition `p` from that
//! shared buffer (see the crate docs).

use deca_core::Optimizer;
use deca_engine::record::{ArrayKind, Elements, HeapArray, HeapRecord, View};
use deca_engine::{AppJob, EngineError, ExecutionMode, ExecutorConfig, JobCtx};
use deca_heap::{Heap, ObjRef, OomError};
use deca_udt::fixtures::LrProgram;
use deca_udt::{ContainerId, ContainerKind, JobPhases, TypeRef};

use crate::cached::{CachedDataset, Deserialized, Repr, Udf};
use crate::datagen;
use crate::records::LabeledPointRec;
use crate::report::AppReport;
use crate::Partitioned;

/// Parameters of one LR run.
#[derive(Clone, Debug)]
pub struct LrParams {
    pub points: usize,
    pub dims: usize,
    pub iterations: usize,
    pub partitions: usize,
    pub heap_bytes: usize,
    pub storage_fraction: f64,
    pub mode: ExecutionMode,
    /// Deca page size override (None = executor default). High-dimensional
    /// records need larger pages to bound tail waste (§4.3.1).
    pub page_size: Option<usize>,
    pub gc_algorithm: deca_heap::GcAlgorithm,
    pub seed: u64,
    /// Sample the LabeledPoint lifetime timeline once per iteration
    /// (Figure 9a).
    pub sample_timeline: bool,
}

impl LrParams {
    pub fn small(mode: ExecutionMode) -> LrParams {
        LrParams {
            points: 20_000,
            dims: 10,
            iterations: 10,
            partitions: 8,
            heap_bytes: 32 << 20,
            storage_fraction: 0.6,
            mode,
            page_size: None,
            gc_algorithm: deca_heap::GcAlgorithm::ParallelScavenge,
            seed: 20160902,
            sample_timeline: false,
        }
    }
}

/// Run LR across `executors` parallel executors and report metrics, cache
/// size, and the final-weights checksum. The weights are bit-identical
/// for any executor count: task `p` always scans its own cached partition
/// and the driver sums partial gradients in task order. (Unlike the
/// paper's reported numbers, the report includes the load stage in the
/// job totals — the `lr-load` stage metrics keep it separable.)
pub fn run_local(params: &LrParams, executors: usize) -> AppReport {
    crate::run_job_local(&job(params), lr_config(params), executors)
}

/// The executor configuration LR runs under (public so equivalence tests
/// can build sessions with the exact same memory split, then vary retry
/// policy and scheduler mode).
pub fn lr_config(params: &LrParams) -> ExecutorConfig {
    let mut config = ExecutorConfig::new(params.mode, params.heap_bytes)
        .storage_fraction(params.storage_fraction)
        .gc_algorithm(params.gc_algorithm);
    if let Some(page) = params.page_size {
        config = config.page_size(page);
    }
    config
}

/// Builds the caching stage's program for the optimizer; an error is the
/// plan's.
pub(crate) type Analysis = fn() -> Result<LrProgram, EngineError>;

/// How the cached points are stored in `mode`. Deca plans them from
/// `analysis`, the caching stage's IR (Appendix A): the LR job's program
/// refines LabeledPoint to SFST, so the points become unframed
/// `LabeledPointRec::sfst_size(dims)`-byte segments. Driver-side, once per
/// job; KMeans caches the same points and plans them the same way.
pub(crate) fn points_repr(
    mode: ExecutionMode,
    analysis: Analysis,
    dims: usize,
) -> Result<Repr, EngineError> {
    let decide = || {
        let analysis = analysis()?;
        let opt = Optimizer::new(&analysis.types.registry, &analysis.program);
        let phases = JobPhases::new().phase("map", analysis.stage_entry);
        let cache = deca_core::ContainerInfo {
            id: ContainerId(0),
            kind: ContainerKind::CachedRdd,
            created_seq: 0,
            content: TypeRef::Udt(analysis.types.labeled_point),
            write_phase: 0,
        };
        Ok(opt.plan(&phases, &[cache], &[]).decision(ContainerId(0)).clone())
    };
    let size = Some(LabeledPointRec::sfst_size(dims));
    Repr::plan(mode, decide, size, Deserialized::Objects)
}

/// The LR job description: consumed by `DecaServer::submit` (via
/// `JobSpec::app`) and by the local shims above.
pub fn job(params: &LrParams) -> AppJob {
    job_planned_by(params, crate::records::lr_plan_input)
}

/// [`job`] with the cached points planned from `analysis` instead of the
/// LR job's own program.
pub(crate) fn job_planned_by(params: &LrParams, analysis: Analysis) -> AppJob {
    let params = params.clone();
    let parts = Partitioned::split(
        datagen::labeled_vectors(params.points, params.dims, params.seed),
        params.partitions,
    );
    AppJob::new("LR", move |job_ctx| run_logreg(&params, &parts, analysis, job_ctx))
}

fn run_logreg(
    params: &LrParams,
    parts: &Partitioned<LabeledPointRec>,
    analysis: Analysis,
    job_ctx: &mut JobCtx,
) -> Result<f64, EngineError> {
    let dims = params.dims;
    let repr = points_repr(params.mode, analysis, dims)?;
    let points = CachedDataset::load(job_ctx, "lr-load", params.partitions, repr, |e, p, repr| {
        repr.put(e, parts.part(p))
    })?;

    // ------------------------------------------------------ iterations
    let mut weights: Vec<f64> = (0..dims).map(|i| 0.1 * ((i % 7) as f64 - 3.0)).collect();
    for iter in 0..params.iterations {
        let weights_now = &weights;
        let points = &points;
        let sample = params.sample_timeline;
        let partials =
            job_ctx.run_stage(&format!("lr-iter{iter}"), params.partitions, |ctx, e| {
                let gradient = Gradient { weights: weights_now, sum: vec![0.0f64; dims] };
                let partial = points.scan(ctx, e, gradient)?.sum;
                if sample {
                    let classes = LabeledPointRec::register(&mut e.heap);
                    e.sample_timeline(classes.record);
                }
                Ok(partial)
            })?;
        // Sum partial gradients in task order (each partial is itself the
        // partition's in-order point sum), then apply the step — the f64
        // addition sequence never depends on where tasks ran.
        let mut gradient = vec![0.0f64; dims];
        for partial in &partials {
            for (g, p) in gradient.iter_mut().zip(partial) {
                *g += p;
            }
        }
        for (w, g) in weights.iter_mut().zip(&gradient) {
            *w -= 0.1 * g / params.points as f64;
        }
    }
    Ok(weights.iter().map(|w| w.abs()).sum())
}

/// LR's UDF (Figure 1): the map emits each point's features scaled by
/// its gradient factor, and the fold sums them into `sum`.
struct Gradient<'a> {
    weights: &'a [f64],
    sum: Vec<f64>,
}

/// One term of the map's output: a feature scaled by its point's factor.
#[inline]
fn term(x: f64, factor: f64) -> f64 {
    x * factor
}

/// Add the map's output terms into the sum.
#[inline]
fn add(sum: &mut [f64], terms: impl Iterator<Item = f64>) {
    for (g, t) in sum.iter_mut().zip(terms) {
        *g += t;
    }
}

impl Udf<LabeledPointRec> for Gradient<'_> {
    /// The point's factor.
    type Out = f64;

    #[inline]
    fn map<K: ArrayKind>(&self, p: &LabeledPointRec<K::Array<'_, f64>>) -> f64 {
        let mut dot = 0.0;
        for (w, x) in self.weights.iter().zip(p.features.iter()) {
            dot += w * x;
        }
        (1.0 / (1.0 + (-p.label * dot).exp()) - 1.0) * p.label
    }

    #[inline]
    fn fold<K: ArrayKind>(&mut self, p: LabeledPointRec<K::Array<'_, f64>>, factor: f64) {
        add(&mut self.sum, p.features.iter().map(|x| term(x, factor)));
    }

    /// Spark's map output: the scaled features as a temporary `double[d]`
    /// (Figure 1 lines 21-24), dead once the fold has read it.
    fn store_out(
        &self,
        factor: f64,
        heap: &mut Heap,
        point: &<LabeledPointRec as HeapRecord>::Classes,
        find: impl Fn(&Heap) -> ObjRef,
    ) -> Result<Option<ObjRef>, OomError> {
        let d = self.sum.len();
        let scaled = heap.alloc_array(point.array.class, d)?;
        let features = LabeledPointRec::heap_fields(heap, point, find(heap)).features.obj();
        for j in 0..d {
            let x = HeapArray::<f64>::new(heap, features).get(j);
            heap.array_set_f64(scaled, j, term(x, factor));
        }
        Ok(Some(scaled))
    }

    fn fold_back(&mut self, _: LabeledPointRec<HeapArray<f64>>, _: f64, heap: &Heap, arr: ObjRef) {
        add(&mut self.sum, HeapArray::<f64>::new(heap, arr).iter());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deca_engine::ClusterSession;

    fn tiny(mode: ExecutionMode) -> LrParams {
        LrParams {
            points: 2_000,
            dims: 8,
            iterations: 3,
            partitions: 4,
            heap_bytes: 16 << 20,
            storage_fraction: 0.6,
            mode,
            page_size: None,
            gc_algorithm: deca_heap::GcAlgorithm::ParallelScavenge,
            seed: 11,
            sample_timeline: false,
        }
    }

    #[test]
    fn all_modes_compute_identical_weights() {
        let spark = run_local(&tiny(ExecutionMode::Spark), 1);
        let ser = run_local(&tiny(ExecutionMode::SparkSer), 1);
        let deca = run_local(&tiny(ExecutionMode::Deca), 1);
        assert!((spark.checksum - deca.checksum).abs() < 1e-12);
        assert!((ser.checksum - deca.checksum).abs() < 1e-12);
        assert!(spark.checksum > 0.0);
    }

    #[test]
    fn the_description_generates_its_input_once_and_runs_never_do() {
        let p = tiny(ExecutionMode::Deca);
        crate::assert_description_owns_its_input(|| job(&p), lr_config(&p), 1);
    }

    /// The analysis alone picks Deca's cached layout: planned with each of
    /// the three LR fixtures, the same job stores unframed pages (SFST),
    /// framed pages (RFST) and heap objects (VST), and returns the Spark
    /// run's weights bit for bit.
    #[test]
    fn the_fixture_picks_the_cached_layout_and_never_the_answer() {
        use deca_udt::fixtures;
        let p = tiny(ExecutionMode::Deca);
        let spark = run_local(&tiny(ExecutionMode::Spark), 1).checksum;
        let sfst = LabeledPointRec::sfst_size(p.dims);
        let cells: [(Analysis, Repr); 3] = [
            (|| Ok(fixtures::lr_program()), Repr::Pages { record_size: Some(sfst) }),
            (|| Ok(fixtures::lr_program_variable_dims()), Repr::Pages { record_size: None }),
            (|| Ok(fixtures::lr_program_with_reassignment()), Repr::Objects),
        ];
        for (analysis, want) in cells {
            assert_eq!(points_repr(ExecutionMode::Deca, analysis, p.dims).unwrap(), want);
            let mut session = ClusterSession::new(1, lr_config(&p));
            let (checksum, _) = crate::run_job_on(&job_planned_by(&p, analysis), &mut session)
                .unwrap_or_else(|e| panic!("{want:?}: {e}"));
            assert_eq!(checksum.to_bits(), spark.to_bits(), "{want:?}: weights drifted");
            let mut stored = 0;
            for i in 0..session.executors() {
                let e = &mut *session.executor(i);
                for b in e.cache.blocks_of_job(0) {
                    stored += 1;
                    match want {
                        Repr::Pages { record_size } => {
                            assert_eq!(e.cache.deca_block(b).fixed_size(), record_size, "{want:?}")
                        }
                        _ => {
                            let (_, len) = e
                                .cache
                                .objects_root(b, &mut e.heap, &mut e.kryo, &mut e.mm)
                                .unwrap();
                            assert!(len > 0, "{want:?}: an empty object block");
                        }
                    }
                }
            }
            assert_eq!(stored, p.partitions, "{want:?}: one block per partition");
        }
    }

    #[test]
    fn deca_cache_is_smaller_than_spark() {
        let spark = run_local(&tiny(ExecutionMode::Spark), 1);
        let deca = run_local(&tiny(ExecutionMode::Deca), 1);
        assert!(
            deca.cache_bytes < spark.cache_bytes,
            "deca {} vs spark {}",
            deca.cache_bytes,
            spark.cache_bytes
        );
    }

    #[test]
    fn timeline_shows_live_points_in_spark_only() {
        let mut p = tiny(ExecutionMode::Spark);
        p.sample_timeline = true;
        let spark = run_local(&p, 1);
        assert!(
            spark.timeline.peak_live() >= p.points,
            "cached points live on the heap: peak={} points={}",
            spark.timeline.peak_live(),
            p.points
        );
        let mut p = tiny(ExecutionMode::Deca);
        p.sample_timeline = true;
        let deca = run_local(&p, 1);
        assert_eq!(deca.timeline.peak_live(), 0, "no LabeledPoint objects in Deca");
    }
}
